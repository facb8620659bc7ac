(* Extension (not a paper figure): the multi-client server's group commit
   under concurrent writers.

   N client threads each run a closed loop of synchronous write batches
   over zipf-distributed keys against a live siri server on a Unix socket.
   The writer thread folds whatever has queued into one engine commit —
   one batched index build, one WAL frame, one fsync — so with W blocked
   writers a fold captures up to W batches.  The comparison pins the
   durability story: [single] forces group_max = 1 (every batch pays its
   own build + frame + fsync), [group] uses the default fold.  Client-side
   commit latency lands in a telemetry histogram (p50/p95/p99); the mean
   group size and WAL frame count come from the server's own sink, so the
   numbers are the ones the conservation tests already pin. *)

open Siri_core
module Store = Siri_store.Store
module Durable = Siri_wal.Durable
module Server = Siri_server.Server
module Client = Siri_server.Client
module Telemetry = Siri_telemetry.Telemetry
module Zipf = Siri_workload.Zipf
module Clock = Siri_benchkit.Clock
module Table = Siri_benchkit.Table

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
      (Printf.sprintf "siri_server_bench.%d.%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf d;
  d

let mk_index store =
  Siri_pos.Pos_tree.generic
    (Siri_pos.Pos_tree.empty store (Siri_pos.Pos_tree.config ()))

type run = {
  throughput : float;  (** acked commits / s across all writers *)
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  mean_group : float;  (** acked / WAL frames *)
  wal_frames : int;
}

(* One mode: [writers] closed-loop clients, [commits] batches each of
   [batch] zipf-keyed puts, against a server capped at [group_max]. *)
let run_mode ~writers ~commits ~batch ~group_max =
  let dir = fresh_dir () in
  let sock = Filename.concat dir "bench.sock" in
  let empty_index () =
    let store = Store.create ~cache_bytes:0 ~proof_cache_bytes:0 () in
    Store.set_sink store (Telemetry.create ~clock:Unix.gettimeofday ());
    mk_index store
  in
  let durable =
    match Siri_shard.Dir.open_ ~sync:true ~dir ~empty_index () with
    | Ok d -> d
    | Error e -> failwith (Format.asprintf "%a" Siri_wal.Wal.pp_error e)
  in
  let config = { Server.default_config with group_max } in
  let server = Server.start ~config ~dir:durable ~listen:[ `Unix sock ] () in
  let lat = Telemetry.create ~clock:Unix.gettimeofday () in
  let zipf = Zipf.create ~n:10_000 ~theta:0.9 in
  let failures = Atomic.make 0 in
  let writer w () =
    match Client.connect ~addr:(`Unix sock) () with
    | Error _ -> Atomic.incr failures
    | Ok c ->
        let rng = Rng.create (Params.seed + (w * 7919)) in
        for i = 1 to commits do
          let ops =
            List.init batch (fun j ->
                Kv.Put
                  ( Printf.sprintf "key%05d" (Zipf.sample zipf rng),
                    Printf.sprintf "w%d-c%d-%d" w i j ))
          in
          let t0 = Clock.now () in
          match Client.commit c ~branch:"master" ~message:"bench" ops with
          | Ok _ -> Telemetry.observe lat "client.commit" (Clock.now () -. t0)
          | Error _ -> Atomic.incr failures
        done;
        Client.close c
  in
  let t0 = Clock.now () in
  let threads =
    List.init writers (fun w -> Thread.create (writer w) ())
  in
  List.iter Thread.join threads;
  let seconds = Clock.now () -. t0 in
  let sink = Server.sink server in
  let acked = Telemetry.counter sink "server.commit.acked" in
  let frames = Telemetry.counter sink "server.commit.groups" in
  Server.stop server;
  rm_rf dir;
  if Atomic.get failures > 0 then
    failwith
      (Printf.sprintf "server bench: %d request failures"
         (Atomic.get failures));
  let ms p = 1000. *. Telemetry.quantile lat "client.commit" p in
  { throughput = float_of_int acked /. seconds;
    p50_ms = ms 0.5;
    p95_ms = ms 0.95;
    p99_ms = ms 0.99;
    mean_group = float_of_int acked /. float_of_int (max 1 frames);
    wal_frames = frames }

let run () =
  let commits = if Params.is_full () then 100 else 25 in
  let batch = 16 in
  let writer_sweep = [ 1; 2; 4; 8 ] in
  let modes = [ ("single", 1); ("group", Server.default_config.group_max) ] in
  let rows =
    List.concat_map
      (fun writers ->
        List.map
          (fun (label, group_max) ->
            let r = run_mode ~writers ~commits ~batch ~group_max in
            (Printf.sprintf "%s@%d" label writers, r))
          modes)
      writer_sweep
  in
  Table.print
    ~title:
      (Printf.sprintf
         "Server group commit: %d batches x %d puts per writer (zipf 0.9, \
          fsync on)"
         commits batch)
    ~headers:
      [ "mode@writers"; "commits/s"; "p50 ms"; "p95 ms"; "p99 ms";
        "mean group"; "WAL frames" ]
    (List.map
       (fun (label, r) ->
         [ label;
           Printf.sprintf "%.0f" r.throughput;
           Printf.sprintf "%.2f" r.p50_ms;
           Printf.sprintf "%.2f" r.p95_ms;
           Printf.sprintf "%.2f" r.p99_ms;
           Printf.sprintf "%.2f" r.mean_group;
           string_of_int r.wal_frames ])
       rows);
  (* the acceptance bar: folding must not cost throughput under contention *)
  (match
     ( List.assoc_opt "single@8" rows,
       List.assoc_opt "group@8" rows )
   with
  | Some s, Some g when g.throughput < s.throughput ->
      Printf.printf
        "WARNING: group commit slower than single at 8 writers (%.0f < %.0f)\n"
        g.throughput s.throughput
  | _ -> ());
  Metrics.series ~id:"server"
    ~title:"group commit vs single commit under concurrent writers"
    ~x_label:"mode@writers"
    ~columns:
      [ "commits_per_s"; "p50_ms"; "p95_ms"; "p99_ms"; "mean_group_size";
        "wal_frames" ]
    (List.map
       (fun (label, r) ->
         ( label,
           [ r.throughput; r.p50_ms; r.p95_ms; r.p99_ms; r.mean_group;
             float_of_int r.wal_frames ] ))
       rows)
