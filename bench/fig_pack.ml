(* Extension (not a paper figure): the log-structured pack-file backend
   against the monolithic snapshot, over 10^4..10^6 keys.

   What the snapshot amortizes into one O(data) [Store.load], the pack
   splits: reopen is O(index) — decode the offset index, stat the
   segments — and every cold read is one positional segment read into the
   reading domain's record buffer that hashes the node bytes once (the
   content hash) plus a short head digest.  The table reports both reopen
   latencies, the pack's worst case (index deleted, rebuilt by scanning
   every segment — the bound crash recovery pays), cold read throughput
   from one domain and from two, and the bytes each layout keeps on
   disk, where every eighth record has children.

   A second table times appends into the default 8 MiB segments across
   several rolls: each append carries ~120 KB, the pack bytes of one
   perfbench [ingest] commit, with no sync flush in between, as under
   [Durable], where only a checkpoint syncs the pack.  Its p99 and max
   are the appends that roll. *)

module Store = Siri_store.Store
module Hash = Siri_crypto.Hash
module Pack = Siri_pack.Pack
module Clock = Siri_benchkit.Clock
module Table = Siri_benchkit.Table
module Hist = Siri_benchkit.Hist
module Telemetry = Siri_telemetry.Telemetry
module Json = Telemetry.Json

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "siri_pack_bench.%d.%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf d;
  d

let sizes () = Params.pick ~quick:[ 10_000 ] ~full:[ 10_000; 100_000; 1_000_000 ]
let read_sample = 10_000

(* A cold-read pass over the sample takes a few milliseconds, so each
   read row is the median of [read_passes] passes. *)
let read_passes = 5

let median_time f =
  let times = List.init read_passes (fun _ -> Clock.time_unit f) in
  List.nth (List.sort compare times) (read_passes / 2)

(* Deterministic records, ~the record size the YCSB experiments use, so
   bytes-on-disk are comparable across the suite.  Seven in eight are
   leaves; every eighth is an internal node whose bytes hold the hashes of
   the seven leaves before it, named by their offsets as an index node
   names its children, so the record heads carry child offsets too. *)
let fanout = 7

let rec node i =
  let prefix = Printf.sprintf "pack-bench-%08d:" i in
  if i mod (fanout + 1) <> fanout then
    let bytes = prefix ^ String.make (128 + (i mod 64)) 'x' in
    (Hash.of_string bytes, bytes, [||])
  else
    let children =
      List.init fanout (fun j ->
          let h, _, _ = node (i - fanout + j) in
          Hash.to_raw h)
    in
    let bytes = String.concat "" (prefix :: children) in
    ( Hash.of_string bytes,
      bytes,
      Array.init fanout (fun j -> String.length prefix + (j * Hash.size)) )

let nodes n = List.init n node

let sample_hashes n =
  let rng = Siri_core.Rng.create Params.seed in
  List.init read_sample (fun _ ->
      let h, _, _ = node (Siri_core.Rng.int rng n) in
      h)

let file_bytes path = (Unix.stat path).Unix.st_size

let dir_bytes dir =
  Array.fold_left
    (fun acc name ->
      let p = Filename.concat dir name in
      if Sys.is_directory p then acc else acc + file_bytes p)
    0 (Sys.readdir dir)

let open_pack_exn ?sink dir =
  match Pack.open_ ?sink dir with
  | Ok tr -> tr
  | Error (`Tampered msg) -> failwith ("pack bench: " ^ msg)

type row = {
  n : int;
  snap_reopen_s : float;
  snap_cold_kops : float;
  snap_bytes : int;
  pack_reopen_s : float;
  pack_rescan_s : float;
  pack_cold_kops : float;
  pack_cold_2dom_kops : float;
  pack_bytes : int;
}

let measure n =
  let data = nodes n in
  let sample = sample_hashes n in
  let kops seconds = Common.kops read_sample seconds in

  (* --- snapshot: one monolithic store.<gen>-style file --- *)
  let snap_dir = fresh_dir () in
  Unix.mkdir snap_dir 0o755;
  let snap_path = Filename.concat snap_dir "store" in
  let store = Store.create () in
  List.iter
    (fun (_, bytes, child_offsets) ->
      ignore (Store.put store ~child_offsets bytes : Hash.t))
    data;
  Store.save store snap_path;
  let loaded, snap_reopen_s = Clock.time (fun () -> Store.load snap_path) in
  let snap_cold_s =
    median_time (fun () ->
        List.iter (fun h -> ignore (Store.get loaded h : string)) sample)
  in
  let snap_bytes = file_bytes snap_path in
  rm_rf snap_dir;

  (* --- pack: segments + offset index + manifest --- *)
  let pack_dir = fresh_dir () in
  let p, _ = open_pack_exn pack_dir in
  Pack.append p data;
  Pack.close p;
  let (p, r), pack_reopen_s = Clock.time (fun () -> open_pack_exn pack_dir) in
  assert (not r.Pack.index_rebuilt);
  let read_all hs = List.iter (fun h -> ignore (Pack.get p h : string option)) hs in
  let pack_cold_s = median_time (fun () -> read_all sample) in
  (* The same sample split between the main domain and a second one:
     each reads into its own record buffer. *)
  let half, rest = List.partition (fun h -> Hash.byte h 0 land 1 = 0) sample in
  let pack_cold_2dom_s =
    median_time (fun () ->
        let other = Domain.spawn (fun () -> read_all half) in
        read_all rest;
        Domain.join other)
  in
  Pack.close p;
  let pack_bytes = dir_bytes pack_dir in
  (* worst case: no index survives, reopen rescans every segment *)
  Sys.remove (Filename.concat pack_dir "index");
  let (p, r), pack_rescan_s = Clock.time (fun () -> open_pack_exn pack_dir) in
  assert r.Pack.index_rebuilt;
  Pack.close p;
  rm_rf pack_dir;

  { n; snap_reopen_s; snap_cold_kops = kops snap_cold_s; snap_bytes;
    pack_reopen_s; pack_rescan_s; pack_cold_kops = kops pack_cold_s;
    pack_cold_2dom_kops = kops pack_cold_2dom_s; pack_bytes }

(* --- rolling appends ----------------------------------------------------------- *)

let roll_appends = 600
let roll_records = 40
let roll_record_bytes = 3 * 1024

type rolling = { rolls : int; p50_us : float; p99_us : float; max_us : float }

let measure_rolling () =
  let dir = fresh_dir () in
  let sink = Telemetry.create () in
  let p, _ = open_pack_exn ~sink dir in
  let hist = Hist.create () in
  for a = 0 to roll_appends - 1 do
    let batch =
      List.init roll_records (fun r ->
          let bytes =
            Printf.sprintf "roll-%06d-%02d:" a r
            ^ String.make roll_record_bytes 'r'
          in
          (Hash.of_string bytes, bytes, [||]))
    in
    Hist.add hist (Clock.time_unit (fun () -> Pack.append p batch))
  done;
  Pack.close p;
  rm_rf dir;
  let us q = Hist.percentile hist q *. 1e6 in
  { rolls = Telemetry.counter sink "pack.roll";
    p50_us = us 0.50;
    p99_us = us 0.99;
    max_us = Hist.max_value hist *. 1e6 }

let run () =
  let rows = List.map measure (sizes ()) in
  let rolling = measure_rolling () in
  let ms s = Printf.sprintf "%.1f" (s *. 1000.0) in
  let mb b = Printf.sprintf "%.1f" (float_of_int b /. 1048576.0) in
  Table.print
    ~title:
      (Printf.sprintf
         "Pack backend vs snapshot: cold reopen and %d cold reads" read_sample)
    ~headers:
      [ "N"; "snap reopen ms"; "pack reopen ms"; "pack rescan ms";
        "snap cold kops"; "pack cold kops"; "pack cold kops 2 dom";
        "snap MB"; "pack MB" ]
    (List.map
       (fun r ->
         [ string_of_int r.n; ms r.snap_reopen_s; ms r.pack_reopen_s;
           ms r.pack_rescan_s;
           Printf.sprintf "%.1f" r.snap_cold_kops;
           Printf.sprintf "%.1f" r.pack_cold_kops;
           Printf.sprintf "%.1f" r.pack_cold_2dom_kops;
           mb r.snap_bytes; mb r.pack_bytes ])
       rows);
  let us v = Printf.sprintf "%.0f" v in
  Table.print
    ~title:
      (Printf.sprintf "Rolling appends: %d x %d records of %d B, 8 MiB segments"
         roll_appends roll_records roll_record_bytes)
    ~headers:[ "rolls"; "append p50 us"; "append p99 us"; "append max us" ]
    [ [ string_of_int rolling.rolls; us rolling.p50_us; us rolling.p99_us;
        us rolling.max_us ] ];
  Metrics.write ~id:"pack"
    (Json.obj
       [ ("experiment", Json.str "pack");
         ("host_domains", Json.int (Domain.recommended_domain_count ()));
         ("sha256_kernel", Json.str Siri_crypto.Sha256.kernel);
         ("read_sample", Json.int read_sample);
         ("read_passes", Json.int read_passes);
         ( "rows",
           Json.arr
             (List.map
                (fun r ->
                  Json.obj
                    [ ("n", Json.int r.n);
                      ("snapshot_reopen_s", Json.num r.snap_reopen_s);
                      ("pack_reopen_s", Json.num r.pack_reopen_s);
                      ("pack_rescan_reopen_s", Json.num r.pack_rescan_s);
                      ("snapshot_cold_get_kops", Json.num r.snap_cold_kops);
                      ("pack_cold_get_kops", Json.num r.pack_cold_kops);
                      ( "pack_cold_get_2dom_kops",
                        Json.num r.pack_cold_2dom_kops );
                      ("snapshot_bytes", Json.int r.snap_bytes);
                      ("pack_bytes", Json.int r.pack_bytes) ])
                rows) );
         ( "rolling_append",
           Json.obj
             [ ("appends", Json.int roll_appends);
               ("records_per_append", Json.int roll_records);
               ("record_bytes", Json.int roll_record_bytes);
               ("rolls", Json.int rolling.rolls);
               ("append_p50_us", Json.num rolling.p50_us);
               ("append_p99_us", Json.num rolling.p99_us);
               ("append_max_us", Json.num rolling.max_us) ] ) ])
