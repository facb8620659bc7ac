(* perfbench: the siri-serve end-to-end benchmark.  Run it through
   perfbench/run.py, which builds it and siri_serve from source:

     python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

   One run preloads 100k keys into a fresh durable directory, spawns the
   real siri_serve on it (several times: the median spawn-to-READY is the
   set-up time), drives it from two closed-loop connections for
   [--seconds] after a warm-up, and checks every answer.  The gated
   latencies are in host-probe units (see Probe); the raw milliseconds are
   in the report.  With [--trace 1] it then replays the same operation
   stream in-process with per-layer timers and prints per-layer metrics
   instead of end-to-end ones.  The last line of stdout is the result
   object; everything above it is the human-readable report (host, config,
   every metric with its unit and sample count). *)

module Durable = Siri_wal.Durable
module Engine = Siri_forkbase.Engine
module Store = Siri_store.Store
module Server = Siri_server.Server
module Pos_tree = Siri_pos.Pos_tree

let setup_spawns = 11
let warmup_s = 1.0

(* rss_mb and disk_mb are sampled at a fixed amount of work, not at the
   end of the run: the hot tier keeps every node written, so an
   end-of-run sample would grow with throughput and punish a faster
   server.  The work clock counts acked commits when the workload writes,
   completed reads otherwise. *)
let mark_commits = 200
let mark_reads = 2000

let mark_at w = if Gen.writes w then mark_commits else mark_reads
let final_sample = 256

(* Conservation: per op kind, layer self times plus the unattributed time
   must equal the op time within this share, and no self time may be
   negative beyond the clock's resolution. *)
let conservation_tolerance = 0.01

let say fmt = Printf.printf (fmt ^^ "\n%!")

let preload ~backend ~dir entries =
  let store = Store.create ~cache_bytes:0 ~proof_cache_bytes:0 () in
  let index = Pos_tree.generic (Pos_tree.empty store (Pos_tree.config ())) in
  match Durable.open_ ~sync:true ~backend ~dir ~empty_index:index () with
  | Error e -> failwith (Format.asprintf "preload: %a" Siri_wal.Wal.pp_error e)
  | Ok d ->
      ignore
        (Durable.commit_bulk d ~branch:Load.branch ~message:"preload" entries
          : Engine.commit);
      Durable.checkpoint d;
      Durable.close d

(* --- metrics --------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let fratio a b = if b = 0.0 then 0.0 else a /. b

let number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else failwith "non-finite metric"

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name
              (number x.value) x.unit_)
          metrics))

let print_metric ?n x =
  match n with
  | Some n -> say "  %-36s %14.4f %-6s (n=%d)" x.name x.value x.unit_ n
  | None -> say "  %-36s %14.4f %s" x.name x.value x.unit_

(* --- the closed-loop run's report ------------------------------------------ *)

let latency_report (r : Load.result) ~seconds =
  List.iter
    (fun kind ->
      let s = Load.samples r kind in
      let n = Stat.count s in
      if n > 0 then begin
        print_metric ~n (m (kind ^ "_per_s") "1/s" (float_of_int n /. seconds));
        print_metric ~n (m (kind ^ "_p50_ms") "ms" (1e3 *. Stat.median s));
        print_metric ~n (m (kind ^ "_p99_ms") "ms" (1e3 *. Stat.quantile s 0.99));
        say "  %-36s %14d samples above p99" (kind ^ "_p99_ms") (Stat.beyond s 0.99)
      end)
    Gen.kinds

(* --- the traced run's metrics ---------------------------------------------- *)

let slot = Tracer.slot

(* Sum [f] over the op kinds present. *)
let tot accs (f : Replay.acc -> float) =
  Hashtbl.fold (fun _ a acc -> acc +. f a) accs 0.0

let itot accs (f : Replay.acc -> int) =
  Hashtbl.fold (fun _ a acc -> acc + f a) accs 0

let conservation accs =
  Hashtbl.fold
    (fun kind (a : Replay.acc) errs ->
      let op = Stat.sum a.traced in
      let parts = Array.fold_left ( +. ) a.unattributed a.self in
      let n = float_of_int (max 1 (Stat.count a.traced)) in
      let negative = Array.exists (fun s -> s < -1e-6 *. n) a.self in
      let off = Float.abs (parts -. op) in
      say "  conservation %-8s layers+unattributed %.6f s vs op %.6f s (off %.4f%%)"
        kind parts op (100. *. fratio off op);
      if off > conservation_tolerance *. op || negative then
        Printf.sprintf "conservation broken on %s: layers %.6f s vs op %.6f s"
          kind parts op
        :: errs
      else errs)
    accs []

let per_kind_report accs ~client_p50 =
  Hashtbl.iter
    (fun kind (a : Replay.acc) ->
      let n = a.n and nt = Stat.count a.traced in
      let per_traced l = 1e6 *. fratio a.self.(slot l) (float_of_int nt) in
      let c = Replay.count a in
      say " %s: %d ops (%d traced, %d untraced)" kind n nt (Stat.count a.untraced);
      print_metric ~n:nt (m ("trace.op_us." ^ kind) "us" (1e6 *. Stat.median a.traced));
      print_metric ~n:(Stat.count a.untraced)
        (m ("trace.untraced_op_us." ^ kind) "us" (1e6 *. Stat.median a.untraced));
      (match client_p50 kind with
      | Some p50 ->
          print_metric
            (m ("server.residual_us." ^ kind) "us"
               (1e6 *. (p50 -. Stat.median a.untraced)))
      | None -> ());
      List.iter
        (fun l ->
          print_metric ~n:nt
            (m (Printf.sprintf "self_us.%s.%s" (Tracer.name l) kind) "us" (per_traced l)))
        Tracer.layers;
      print_metric ~n:nt
        (m ("unattributed_us." ^ kind) "us" (1e6 *. fratio a.unattributed (float_of_int nt)));
      print_metric ~n (m ("proto.bytes." ^ kind) "bytes" (ratio (c "proto.bytes") n));
      print_metric ~n
        (m ("crypto.sha256_bytes_per_op." ^ kind) "bytes" (ratio (c "hash.bytes") n));
      print_metric ~n
        (m ("crypto.sha256_calls_per_op." ^ kind) "count" (ratio (c "hash.calls") n));
      print_metric ~n
        (m ("pack.reads_per_op." ^ kind) "count" (ratio (c "store.get.cold") n));
      print_metric ~n
        (m ("index.nodes_read_per_op." ^ kind) "count" (ratio (c "store.get") n));
      (* self_us.<layer>.<kind> above is also the per-kind breakdown by
         name: index.batch_us = self_us.index.commit, index.lookup_us =
         self_us.index.get, durable.self_us = self_us.wal.commit, and so on. *)
      match kind with
      | "commit" ->
          print_metric ~n:nt
            (m "durable.commit_us" "us"
               (1e6 *. fratio a.incl.(slot Tracer.Wal) (float_of_int nt)));
          say "  (Durable.commit flushes the pack directly, not through the \
               Store.backend record, so that flush is inside self_us.wal)";
          print_metric ~n
            (m "pack.bytes_per_commit" "bytes" (ratio (c "pack.bytes_written") n));
          print_metric ~n
            (m "store.nodes_put_per_commit" "count" (ratio (c "store.put") n))
      | "get" ->
          print_metric
            (m "readpath.filter_skip_ratio" "ratio"
               (ratio (c "read.filter.skip") (c "get.absent")))
      | "prove" ->
          print_metric ~n
            (m "multiproof.nodes_per_key" "count"
               (ratio (c "multiproof.nodes") (n * Gen.prove_keys)))
      | "scan" ->
          print_metric ~n:nt
            (m "index.scan_us_per_entry" "us"
               (per_traced Tracer.Index /. float_of_int Gen.scan_window))
      | _ -> ())
    accs

(* The per_layer metrics of BENCHMARK.json, over the workload's whole op
   mix.  Layers a workload may not reach are given as shares of op time
   or as counts, so no time reads a constant 0. *)
let layer_metrics w accs ~counters ~acked ~client_p50 =
  let nt = float_of_int (itot accs (fun a -> Stat.count a.traced)) in
  let n = itot accs (fun a -> a.n) in
  let op_s = tot accs (fun a -> Stat.sum a.traced) in
  let self l = tot accs (fun a -> a.self.(slot l)) in
  let c name = itot accs (fun a -> Replay.count a name) in
  let kind k f z = match Hashtbl.find_opt accs k with Some a -> f a | None -> z in
  let primary = Gen.primary w in
  let untraced_p50 = kind primary (fun a -> Stat.median a.untraced) 0.0 in
  let traced_p50 = kind primary (fun a -> Stat.median a.traced) 0.0 in
  let commits = kind "commit" (fun a -> a.n) 0 in
  let share l = fratio (self l) op_s in
  let sc = Counters.get counters in
  [ m "server.residual_us" "us"
      (1e6 *. (Option.value ~default:0.0 (client_p50 primary) -. untraced_p50));
    m "server.group_size" "count"
      (ratio (sc "server.commit.acked") (sc "server.commit.groups"));
    m "proto.codec_us" "us" (1e6 *. fratio (self Tracer.Proto) nt);
    m "proto.bytes_per_op" "bytes" (ratio (c "proto.bytes") n);
    m "index.self_us" "us" (1e6 *. fratio (self Tracer.Index) nt);
    m "index.nodes_read_per_op" "count" (ratio (c "store.get") n);
    m "wal.self_share" "ratio" (share Tracer.Wal);
    m "wal.fsync_per_commit" "count" (ratio (sc "wal.fsync") acked);
    m "wal.bytes_per_commit" "bytes" (ratio (sc "wal.append_bytes") acked);
    m "pack.read_share" "ratio" (share Tracer.Pack_read);
    m "pack.write_share" "ratio" (share Tracer.Pack_write);
    m "pack.reads_per_op" "count" (ratio (c "store.get.cold") n);
    m "pack.bytes_per_commit" "bytes"
      (ratio (kind "commit" (fun a -> Replay.count a "pack.bytes_written") 0) commits);
    m "store.nodes_put_per_commit" "count"
      (ratio (kind "commit" (fun a -> Replay.count a "store.put") 0) commits);
    m "store.unique_ratio" "ratio" (ratio (c "store.put_unique") (c "store.put"));
    m "store.cold_ratio" "ratio" (ratio (c "store.get.cold") (c "store.get"));
    m "crypto.sha256_bytes_per_op" "bytes" (ratio (c "hash.bytes") n);
    m "crypto.sha256_calls_per_op" "count" (ratio (c "hash.calls") n);
    m "readpath.filter_skip_ratio" "ratio" (ratio (c "read.filter.skip") (c "get.absent"));
    m "readpath.node_cache_hit_ratio" "ratio"
      (ratio (c "cache.node.hit") (c "cache.node.hit" + c "cache.node.miss"));
    m "multiproof.share" "ratio" (share Tracer.Multiproof);
    m "multiproof.nodes_per_key" "count"
      (ratio (c "multiproof.nodes") (kind "prove" (fun a -> a.n) 0 * Gen.prove_keys));
    m "trace.op_us" "us" (1e6 *. untraced_p50);
    m "trace.unattributed_share" "ratio"
      (fratio (tot accs (fun a -> a.unattributed)) op_s);
    m "trace.overhead_ratio" "ratio" (fratio traced_p50 untraced_p50) ]

(* --- one run --------------------------------------------------------------- *)

let run ~w ~seed ~seconds ~trace ~serve_exe ~work ~nproc =
  let backend = Gen.backend w in
  let wname = Gen.workload_name w in
  say "perfbench workload=%s seed=%d seconds=%g trace=%d" wname seed seconds trace;
  say "host: nproc=%d domains=%d ocaml=%s fs=%s" nproc
    (Domain.recommended_domain_count ()) Sys.ocaml_version (Host.fs_type work);
  say "host.fsync_us=%.1f host.sha256_mb_per_s=%.1f" (Host.fsync_us work)
    (Host.sha256_mb_per_s ());
  let sock = Filename.concat work "s.sock" in
  let db = Filename.concat work "db" in
  let cfg = Server.default_config in
  say "siri_serve %s (defaults: group-max=%d max-queue=%d session-max=%d)"
    (String.concat " " (Serve.flags ~backend ~sock))
    cfg.Server.group_max cfg.Server.max_queue cfg.Server.session_max;
  say
    "load: %d closed-loop connections, warm-up %.1f s, preload %d keys (key%%08d, \
     even), %d-byte values from dataset seed %d, streams seeded from %d"
    Gen.connections warmup_s Gen.preload_keys Gen.value_len Gen.dataset_seed seed;
  let entries = Gen.preload () in
  let values = Array.of_list (List.map snd entries) in
  let t0 = Host.now () in
  preload ~backend ~dir:db entries;
  say "preload: %.2f s, %d bytes on disk" (Host.now () -. t0) (Host.tree_bytes db);
  let trace_db = Filename.concat work "db-traced" in
  if trace = 1 then Host.copy_tree db trace_db;
  (* set-up: spawn and stop, keeping the last server for the run *)
  let rec spawns k acc =
    let s = Serve.spawn ~exe:serve_exe ~dir:db ~backend ~sock in
    if k = 1 then (s, s.Serve.ready_s :: acc)
    else begin
      (match
         Load.with_client ~sock (fun c ->
             Result.map_error Siri_server.Client.error_to_string
               (Siri_server.Client.ping c))
       with
      | Ok () -> ()
      | Error e -> failwith ("ping after set-up: " ^ e));
      (* siri_serve installs its SIGTERM handler just after printing
         READY, so a stop that races it dies by the signal instead. *)
      (match Serve.stop s with
      | Unix.WEXITED 0 -> ()
      | Unix.WSIGNALED n when n = Sys.sigterm -> ()
      | st ->
          failwith ("siri_serve did not exit cleanly after set-up: "
                    ^ Serve.status_string st));
      spawns (k - 1) (s.Serve.ready_s :: acc)
    end
  in
  let server, readies = spawns setup_spawns [] in
  let setup_s = Stat.median_of readies in
  let bytes_before = Host.tree_bytes db in
  let r =
    Load.run ~w ~seed ~sock ~preload:values ~warmup:warmup_s ~seconds
      ~server_pid:server.Serve.pid ~dir:db
      ~mark_at:(mark_at w)
  in
  let bytes_after = Host.tree_bytes db in
  (* The host's speed drifts; a second reading brackets the window. *)
  say "host.sha256_mb_per_s after the window=%.1f" (Host.sha256_mb_per_s ());
  let hwm_end = Host.vm_hwm_kb server.Serve.pid in
  let acked = Load.acked r in
  let counters = Load.server_counters ~sock in
  let final = Load.check_final ~sock ~sample:final_sample r in
  let exit_ok = Serve.stop server = Unix.WEXITED 0 in
  let attempted = Load.total (fun c -> c.Load.attempted) r in
  let failed = Load.total (fun c -> c.Load.failed) r in
  let measured = Load.measured r in
  let primary = Load.samples r (Gen.primary w) in
  (* A refused request counts in [failed]; a wrong answer fails the run. *)
  List.iter (fun e -> say "refused: %s" e) r.Load.errors;
  let problems = ref r.Load.wrong in
  let problem p = problems := !problems @ [ p ] in
  if not exit_ok then problem "siri_serve did not exit cleanly";
  (match final with Ok bad -> List.iter problem bad | Error e -> problem e);
  let counters =
    match counters with
    | Ok c -> c
    | Error e ->
        problem e;
        Hashtbl.create 1
  in
  let sc = Counters.get counters in
  if sc "server.commit.dedup" <> 0 then
    problem (Printf.sprintf "server.commit.dedup = %d" (sc "server.commit.dedup"));
  if sc "server.commit.acked" <> acked then
    problem
      (Printf.sprintf "server.commit.acked = %d but the client saw %d acks"
         (sc "server.commit.acked") acked);
  if Stat.count primary = 0 then problem "no measured operation completed";
  let hwm_kb, mark_bytes =
    match r.Load.mark with
    | Some mk -> mk
    | None ->
        say "note: the fixed-work mark was not reached; sizes taken at the end";
        (hwm_end, bytes_after)
  in
  let norm = Load.normalised r (Gen.primary w) in
  let e2e =
    [ m "setup_s" "s" setup_s;
      m "op_p50_norm" "probe" (Stat.median norm);
      m "op_p99_norm" "probe" (Stat.quantile norm 0.99);
      m "rss_mb" "MB" (float_of_int hwm_kb /. 1024.);
      m "disk_mb" "MB" (float_of_int mark_bytes /. 1048576.) ]
  in
  let probes = Stat.create () in
  Array.iter (Stat.add probes) r.Load.probes;
  say "host probe: %d readings, median %.3f ms, quartiles %.3f / %.3f ms, \
       range %.3f .. %.3f ms"
    (Stat.count probes)
    (1e3 *. Stat.median probes) (1e3 *. Stat.quantile probes 0.25)
    (1e3 *. Stat.quantile probes 0.75) (1e3 *. Stat.quantile probes 0.0)
    (1e3 *. Stat.quantile probes 1.0);
  (let s = Load.stolen r in
   say "host steal: %d ticks of 10 ms over %d slices; %d slices clean"
     (Array.fold_left ( + ) 0 s) (Array.length s)
     (Array.fold_left (fun n c -> if c then n + 1 else n) 0 (Load.clean r)));
  say "end to end (op = %s; %d attempted, %d failed, %d measured in %g s):"
    (Gen.primary w) attempted failed measured seconds;
  List.iter2
    (fun x n -> print_metric ~n x)
    e2e
    [ List.length readies; Stat.count norm; Stat.count norm; 1; 1 ];
  say "  (op_*_norm: %s latency over the host probe time around it, in \
       the clean slices; rss_mb and disk_mb sampled once, at %d %s)"
    (Gen.primary w) (mark_at w)
    (if Gen.writes w then "acked commits" else "completed reads");
  latency_report r ~seconds;
  print_metric ~n:attempted (m "fail_ratio" "ratio" (ratio failed attempted));
  if acked > 0 then
    print_metric ~n:acked
      (m "disk_bytes_per_commit" "bytes" (ratio (bytes_after - bytes_before) acked));
  (let pk = Load.total (fun c -> c.Load.proof_keys) r in
   if pk > 0 then
     print_metric ~n:pk
       (m "proof_bytes_per_key" "bytes"
          (ratio (Load.total (fun c -> c.Load.proof_bytes) r) pk)));
  let client_p50 kind =
    let s = Load.samples r kind in
    if Stat.count s = 0 then None else Some (Stat.median s)
  in
  let metrics =
    if trace = 0 then e2e
    else begin
      let replay_s = Float.min 5.0 (Float.max 1.0 (seconds /. 2.0)) in
      say "traced run: %.1f s in-process, %s" replay_s (Replay.config backend);
      let accs, wrong =
        Replay.run ~w ~seed ~dir:trace_db ~preload:values ~seconds:replay_s
      in
      List.iter problem wrong;
      per_kind_report accs ~client_p50;
      List.iter problem (conservation accs);
      let layers = layer_metrics w accs ~counters ~acked ~client_p50 in
      say "per layer (traced run, op mix of %s):" wname;
      List.iter print_metric layers;
      layers
    end
  in
  List.iter (fun p -> say "PROBLEM: %s" p) !problems;
  let correct = !problems = [] in
  print_endline (result_json ~correct ~attempted ~failed metrics);
  if correct then 0 else 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and serve_exe = ref "" and work = ref "" and nproc = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "ingest | lookup-cold | prove-scan");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0 end-to-end metrics, 1 per-layer metrics");
      ("--serve", Arg.Set_string serve_exe, "path of siri_serve.exe");
      ("--work", Arg.Set_string work, "scratch directory (created, then removed)");
      ("--nproc", Arg.Set_int nproc, "usable CPUs, for the host record") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1 --serve EXE --work DIR";
  match Gen.workload_of_string !workload with
  | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  | Some _ when !serve_exe = "" || !work = "" || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) ->
      prerr_endline "perfbench: --serve, --work, --seconds > 0 and --trace 0|1 are required";
      exit 2
  | Some w ->
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      Unix.mkdir !work 0o755;
      let code =
        Fun.protect
          ~finally:(fun () ->
            Serve.kill_all ();
            Host.remove_tree !work)
          (fun () ->
            try
              run ~w ~seed:!seed ~seconds:!seconds ~trace:!trace
                ~serve_exe:!serve_exe ~work:!work ~nproc:!nproc
            with e ->
              Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
              1)
      in
      exit code
