(* Extension (not a paper figure): the log-structured pack-file backend
   against the monolithic snapshot, over 10^4..10^6 keys.

   What the snapshot amortizes into one O(data) [Store.load], the pack
   splits: reopen is O(index) — decode the offset index, stat the
   segments — and every cold read is one positional segment read that
   hashes the node bytes once (the content hash) plus a short head digest.  The table reports both reopen latencies, the pack's
   worst case (index deleted, rebuilt by scanning every segment — the
   bound crash recovery pays), cold read throughput, and the bytes each
   layout keeps on disk. *)

module Store = Siri_store.Store
module Hash = Siri_crypto.Hash
module Pack = Siri_pack.Pack
module Clock = Siri_benchkit.Clock
module Table = Siri_benchkit.Table
module Json = Siri_telemetry.Telemetry.Json

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

(* Deterministic leaf-like records, ~the record size the YCSB experiments
   use, so bytes-on-disk are comparable across the suite. *)
let node i =
  let bytes =
    Printf.sprintf "pack-bench-%08d:%s" i (String.make (128 + (i mod 64)) 'x')
  in
  (Hash.of_string bytes, bytes, [])

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

let open_pack_exn dir =
  match Pack.open_ dir with
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
    (fun (_, bytes, children) -> ignore (Store.put store ~children bytes : Hash.t))
    data;
  Store.save store snap_path;
  let loaded, snap_reopen_s = Clock.time (fun () -> Store.load snap_path) in
  let (), snap_cold_s =
    Clock.time (fun () ->
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
  let (), pack_cold_s =
    Clock.time (fun () ->
        List.iter
          (fun h -> ignore (Pack.get p h : (string * Hash.t list) option))
          sample)
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
    pack_bytes }

let run () =
  let rows = List.map measure (sizes ()) in
  let ms s = Printf.sprintf "%.1f" (s *. 1000.0) in
  let mb b = Printf.sprintf "%.1f" (float_of_int b /. 1048576.0) in
  Table.print
    ~title:
      (Printf.sprintf
         "Pack backend vs snapshot: cold reopen and %d cold reads" read_sample)
    ~headers:
      [ "N"; "snap reopen ms"; "pack reopen ms"; "pack rescan ms";
        "snap cold kops"; "pack cold kops"; "snap MB"; "pack MB" ]
    (List.map
       (fun r ->
         [ string_of_int r.n; ms r.snap_reopen_s; ms r.pack_reopen_s;
           ms r.pack_rescan_s;
           Printf.sprintf "%.1f" r.snap_cold_kops;
           Printf.sprintf "%.1f" r.pack_cold_kops;
           mb r.snap_bytes; mb r.pack_bytes ])
       rows);
  Metrics.write ~id:"pack"
    (Json.obj
       [ ("experiment", Json.str "pack");
         ("host_domains", Json.int (Domain.recommended_domain_count ()));
         ("sha256_kernel", Json.str Siri_crypto.Sha256.kernel);
         ("read_sample", Json.int read_sample);
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
                      ("snapshot_bytes", Json.int r.snap_bytes);
                      ("pack_bytes", Json.int r.pack_bytes) ])
                rows) ) ])
