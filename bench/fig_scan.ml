(* Extension (not a paper figure): routed range scans + online reshard.

   The ordered-read claim of the sharding design, measured: under the
   {e range} scheme a window that fits inside one shard's key interval
   streams from exactly one shard — the figure asserts the telemetry
   counter ([shard.scan.fanout] / [shard.scan] = 1.0), it does not trust
   its own bookkeeping — while the {e hash} scheme scatters every window
   and must k-way-merge all N per-shard streams at the same selectivity.
   The throughput ratio between the two is the routing payoff.

   The second half times the online reshard 4 -> 8 on the same dataset:
   every live entry streams out of the old shards through the scan path
   into per-shard bulk loads, and the swap publishes atomically via the
   manifest generation bump.

   Keys carry a uniform two-byte prefix (Fibonacci-scrambled), so the
   range scheme is balanced and its advantage here is routing, not
   skew. *)

open Siri_core
module Store = Siri_store.Store
module Telemetry = Siri_telemetry.Telemetry
module Partition = Siri_shard.Partition
module Sharded = Siri_shard.Sharded
module Wal = Siri_wal.Wal
module Clock = Siri_benchkit.Clock
module Table = Siri_benchkit.Table
module Json = Telemetry.Json
module Pos = Siri_pos.Pos_tree

let shards = 8

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
      (Printf.sprintf "siri_scan_bench.%d.%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf d;
  d

let fail_error e = failwith (Format.asprintf "%a" Wal.pp_error e)

(* One telemetry sink shared by every shard store of an engine, so the
   engine-level routing counters aggregate in one place. *)
let shared_sink_factory () =
  let sink = Telemetry.create () in
  let mk () =
    let store = Store.create () in
    Store.set_sink store sink;
    Pos.generic (Pos.empty store (Pos.config ()))
  in
  (sink, mk)

let open_engine ~spec ~dir ~mk =
  match Sharded.open_ ~sync:false ~runner:`Pool ~spec ~dir ~empty_index:mk () with
  | Ok t -> t
  | Error e -> fail_error e

let load t entries =
  let batch = 1_000 in
  let n = Array.length entries in
  let b = ref 0 in
  while !b < n do
    let stop = min n (!b + batch) in
    let ops = ref [] in
    for i = stop - 1 downto !b do
      let k, v = entries.(i) in
      ops := Kv.Put (k, v) :: !ops
    done;
    ignore (Sharded.commit t ~branch:"master" ~message:"load" !ops);
    b := stop
  done

(* Force a window and count its entries. *)
let drain seq = Seq.fold_left (fun n _ -> n + 1) 0 seq

let run () =
  let n = Params.pick ~quick:20_000 ~full:200_000 in
  let window_keys = n / 64 in
  let windows_wanted = Params.pick ~quick:16 ~full:32 in
  (* Uniform raw two-byte prefixes via a 16-bit Fibonacci scramble — the
     range partitioner routes on the first two bytes, so this spreads
     the keyspace evenly over all shards; the payload pads records to
     ~64 B. *)
  let entries =
    Array.init n (fun i ->
        let p = i * 40503 land 0xffff in
        ( Printf.sprintf "%c%c:%08d" (Char.chr (p lsr 8)) (Char.chr (p land 0xff)) i,
          Printf.sprintf "%056d" i ))
  in
  let sorted_keys =
    let ks = Array.map fst entries in
    Array.sort compare ks;
    ks
  in
  let range_spec = Partition.make Partition.Range ~shards in
  let hash_spec = Partition.make Partition.Hash ~shards in
  (* Windows of identical selectivity whose bounds route to a single
     shard under the range scheme — the case the router exists for.
     Both engines scan exactly these windows. *)
  let windows =
    let picked = ref [] and w = ref 0 in
    while List.length !picked < windows_wanted && !w < 4 * windows_wanted do
      let start = (!w * 2654435761) mod (n - window_keys) in
      let lo = sorted_keys.(start) and hi = sorted_keys.(start + window_keys) in
      (match Partition.shard_interval range_spec ~lo:(Some lo) ~hi:(Some hi) with
      | Some (a, b) when a = b -> picked := (lo, hi) :: !picked
      | _ -> ());
      incr w
    done;
    List.rev !picked
  in
  let windows_n = List.length windows in
  if windows_n = 0 then failwith "fig_scan: no single-shard window found";
  let bench_scheme name spec =
    let sink, mk = shared_sink_factory () in
    let dir = fresh_dir () in
    let t = open_engine ~spec ~dir ~mk in
    load t entries;
    let scans0 = Telemetry.counter sink "shard.scan" in
    let fanout0 = Telemetry.counter sink "shard.scan.fanout" in
    let t0 = Clock.now () in
    let streamed =
      List.fold_left
        (fun acc (lo, hi) ->
          acc + drain (Sharded.scan ~lo ~hi t ~branch:"master"))
        0 windows
    in
    let window_secs = Clock.now () -. t0 in
    let scans = Telemetry.counter sink "shard.scan" - scans0 in
    let fanout = Telemetry.counter sink "shard.scan.fanout" - fanout0 in
    let avg_fanout = float_of_int fanout /. float_of_int (max 1 scans) in
    let f0 = Clock.now () in
    let full = drain (Sharded.scan t ~branch:"master") in
    let full_secs = Clock.now () -. f0 in
    if full <> n then
      failwith (Printf.sprintf "fig_scan: %s full scan saw %d/%d" name full n);
    Sharded.close t;
    rm_rf dir;
    ( streamed,
      float_of_int streamed /. window_secs,
      avg_fanout,
      float_of_int n /. full_secs )
  in
  let r_streamed, r_eps, r_fanout, r_full = bench_scheme "range" range_spec in
  let h_streamed, h_eps, h_fanout, h_full = bench_scheme "hash" hash_spec in
  (* The telemetry assertion of the whole figure: windowed range-scheme
     scans touched exactly one shard each; hash fanned out to all. *)
  if r_fanout <> 1.0 then
    failwith
      (Printf.sprintf "fig_scan: range fanout %.2f, expected exactly 1.0"
         r_fanout);
  if h_fanout <> float_of_int shards then
    failwith
      (Printf.sprintf "fig_scan: hash fanout %.2f, expected %d" h_fanout shards);
  if r_streamed <> h_streamed then
    failwith "fig_scan: schemes streamed different entry counts";
  let speedup = r_eps /. h_eps in
  (* --- online reshard 4 -> 8 -------------------------------------------- *)
  let reshard_dir = fresh_dir () in
  let _, mk = shared_sink_factory () in
  let t4 =
    open_engine ~spec:(Partition.make Partition.Range ~shards:4)
      ~dir:reshard_dir ~mk
  in
  load t4 entries;
  let rs0 = Clock.now () in
  let t8 =
    match Sharded.reshard t4 ~shards:8 with
    | Ok t -> t
    | Error e -> fail_error e
  in
  let reshard_secs = Clock.now () -. rs0 in
  let migrated = drain (Sharded.scan t8 ~branch:"master") in
  if migrated <> n then
    failwith (Printf.sprintf "fig_scan: reshard migrated %d/%d" migrated n);
  let generation = Sharded.generation t8 in
  let keys =
    Array.map
      (fun (v : Generic.t) -> v.Generic.cardinal ())
      (Siri_shard.Views.parts (Sharded.view t8 ~branch:"master"))
  in
  let max_keys = Array.fold_left max 0 keys in
  let min_keys = Array.fold_left min max_int keys in
  Sharded.close t8;
  rm_rf reshard_dir;
  Table.print
    ~title:
      (Printf.sprintf
         "Routed scans — %d records, %d windows of %d keys (%d shards)" n
         windows_n window_keys shards)
    ~headers:
      [ "scheme"; "fanout/scan"; "window kops/s"; "full-scan kops/s"; "vs hash" ]
    [ [ "range";
        Printf.sprintf "%.1f" r_fanout;
        Printf.sprintf "%.1f" (r_eps /. 1000.);
        Printf.sprintf "%.1f" (r_full /. 1000.);
        Printf.sprintf "%.2fx" speedup ];
      [ "hash";
        Printf.sprintf "%.1f" h_fanout;
        Printf.sprintf "%.1f" (h_eps /. 1000.);
        Printf.sprintf "%.1f" (h_full /. 1000.);
        "1.00x" ] ];
  Table.print
    ~title:"Online reshard (range scheme, live entries streamed + bulk-loaded)"
    ~headers:[ "from"; "to"; "seconds"; "keys/s"; "generation"; "keys min..max" ]
    [ [ "4";
        "8";
        Printf.sprintf "%.2f" reshard_secs;
        Printf.sprintf "%.0f" (float_of_int n /. reshard_secs);
        string_of_int generation;
        Printf.sprintf "%d..%d" min_keys max_keys ] ];
  if speedup < 2.0 then
    Printf.printf
      "warning: range routing only %.2fx over the hash merge at this scale.\n"
      speedup;
  Metrics.write ~id:"scan"
    (Json.obj
       [ ("experiment", Json.str "scan");
         ("title", Json.str "routed range scans + online reshard");
         ("records", Json.int n);
         ("shards", Json.int shards);
         ("windows", Json.int windows_n);
         ("window_keys", Json.int window_keys);
         ( "range",
           Json.obj
             [ ("fanout_per_scan", Json.num r_fanout);
               ("window_entries_per_sec", Json.num r_eps);
               ("full_scan_entries_per_sec", Json.num r_full) ] );
         ( "hash",
           Json.obj
             [ ("fanout_per_scan", Json.num h_fanout);
               ("window_entries_per_sec", Json.num h_eps);
               ("full_scan_entries_per_sec", Json.num h_full) ] );
         ("range_vs_hash_speedup", Json.num speedup);
         ( "reshard",
           Json.obj
             [ ("from_shards", Json.int 4);
               ("to_shards", Json.int 8);
               ("seconds", Json.num reshard_secs);
               ("keys", Json.int n);
               ("keys_per_sec", Json.num (float_of_int n /. reshard_secs));
               ("generation", Json.int generation);
               ("min_shard_keys", Json.int min_keys);
               ("max_shard_keys", Json.int max_keys) ] ) ])
