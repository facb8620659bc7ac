(* Benchmark driver: regenerates every table and figure of the paper's
   evaluation (Section 5) plus the Section 4 theoretical checks.

     dune exec bench/main.exe                 # everything, laptop scale
     dune exec bench/main.exe -- --full       # paper-scale parameters
     dune exec bench/main.exe -- fig6 fig17   # selected experiments
     dune exec bench/main.exe -- --list       # available experiment ids
     dune exec bench/main.exe -- alloc --seed 13   # a seeded experiment  *)

let experiments =
  [ ("fig1", "storage & transfer raw vs deduplicated", Fig_motivation.run);
    ("fig6", "YCSB throughput grid", Fig_throughput.fig6);
    ("fig7", "Wiki & Ethereum throughput", fun () ->
        Fig_throughput.fig7a ();
        Fig_throughput.fig7b ());
    ("fig8", "diff latency", Fig_latency.fig8);
    ("fig9", "tree height distribution", Fig_latency.fig9);
    ("fig10", "YCSB latency distributions", Fig_latency.fig10);
    ("fig11", "Wiki latency distributions", Fig_latency.fig11);
    ("fig12", "Ethereum latency distributions", Fig_latency.fig12);
    ("fig13", "MBT load/scan breakdown", Fig_latency.fig13);
    ("fig14", "single-group storage", Fig_storage.fig14);
    ("fig15", "Wiki storage growth", Fig_storage.fig15);
    ("fig16", "Ethereum storage growth", Fig_storage.fig16);
    ("fig17", "collaboration vs overlap", Fig_collab.fig17);
    ("fig18", "collaboration vs batch size", Fig_collab.fig18);
    ("table3", "structure parameters vs eta", Fig_collab.table3);
    ("fig19", "ablation: structurally invariant", Fig_ablation.fig19);
    ("fig20", "ablation: recursively identical", Fig_ablation.fig20);
    ("fig21", "Forkbase-integrated throughput", Fig_system.fig21);
    ("fig22", "Forkbase vs Noms", Fig_system.fig22);
    ("bounds", "Section 4.1 cost model check", Theory.bounds);
    ("eta", "Section 4.2 dedup ratio check", Theory.eta);
    ("eta-dag", "extension: dedup of branching version DAGs", Theory.eta_dag);
    ("proofs", "extension: point & range proof sizes", Fig_proofs.run);
    ("proof", "extension: batched multiproofs vs k single proofs", Fig_multiproof.run);
    ("wal", "extension: WAL commit & recovery throughput", Fig_wal.run);
    ("pack", "extension: pack-file backend vs snapshot (reopen & cold reads)", Fig_pack.run);
    ("parallel", "extension: domain sweep of the parallel commit pipeline", Fig_parallel.run);
    ("readpath", "extension: decoded-node cache, batched get", Fig_readpath.run);
    ("server", "extension: multi-client server, group vs single commit", Fig_server.run);
    ("shard", "extension: sharded keyspace, concurrent commit + composite root", Fig_shard.run);
    ("scan", "extension: routed range scans + online reshard", Fig_scan.run);
    ("alloc", "extension: time and words per POS commit and cold get (--seed N)", Fig_alloc.run);
    ("batch", "ablation: write batch size vs throughput", Fig_throughput.batch_throughput);
    ("micro", "Bechamel per-op microbenchmarks", Micro.run);
    ("params", "print the Table 1/2 notation and parameter values", fun () ->
        let p = Params.pick in
        Siri_benchkit.Table.print
          ~title:"Table 2: experiment parameters (current scale vs paper)"
          ~headers:[ "parameter"; "this run"; "paper (--full)" ]
          [ [ "dataset sizes";
              String.concat ", " (List.map string_of_int (Params.n_sweep ()));
              "10k..2.56M (x2 steps)" ];
            [ "batch size"; string_of_int (Params.write_batch ()); "4000" ];
            [ "overlap ratios";
              String.concat ", "
                (List.map (Printf.sprintf "%.0f%%")
                   (List.map (( *. ) 100.) (Params.overlap_sweep ())));
              "0..100% (10% steps)" ];
            [ "write ratios"; "0, 0.5, 1"; "0, 0.5, 1" ];
            [ "zipfian theta"; "0, 0.5, 0.9"; "0, 0.5, 0.9" ];
            [ "groups"; string_of_int (Params.groups ()); "10" ];
            [ "MBT buckets"; string_of_int (Params.mbt_buckets ()); "10000" ];
            [ "node size"; "~1 KB (all structures)"; "~1 KB" ];
            [ "ops per run"; string_of_int (Params.ops_count ()); "10000" ];
            [ "seed"; string_of_int Params.seed; "-" ] ];
        ignore p;
        Siri_benchkit.Table.print
          ~title:"Table 1: notation"
          ~headers:[ "symbol"; "meaning" ]
          [ [ "N"; "total number of records" ];
            [ "m"; "fanout of POS-Tree and MBT" ];
            [ "B"; "MBT bucket count (capacity)" ];
            [ "L"; "key length of a record" ];
            [ "delta"; "records differing between two versions" ];
            [ "alpha"; "fraction of records changed per version" ];
            [ "r"; "average record size" ];
            [ "c"; "cryptographic hash size (32 B)" ] ]) ]

let note_fig1_fig2 = "fig1 also prints Figure 2 (B+-tree order dependence)."

let list_experiments () =
  Printf.printf "available experiments (%s):\n"
    (if Params.is_full () then "full scale" else "quick scale");
  List.iter (fun (id, descr, _) -> Printf.printf "  %-8s %s\n" id descr)
    experiments;
  Printf.printf "note: %s\n" note_fig1_fig2

let run_one (id, _descr, f) =
  Printf.printf "\n######## %s ########\n%!" id;
  let t0 = Unix.gettimeofday () in
  f ();
  Printf.printf "[%s done in %.1fs]\n%!" id (Unix.gettimeofday () -. t0)

let () =
  (* [--seed N] seeds the experiments that take one (alloc). *)
  let rec strip_seed = function
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with
        | Some s -> Fig_alloc.seed := s
        | None ->
            Printf.eprintf "--seed expects an integer, got %S\n" n;
            exit 2);
        strip_seed rest
    | a :: rest -> a :: strip_seed rest
    | [] -> []
  in
  let args = Array.to_list Sys.argv |> List.tl |> strip_seed in
  let full = List.mem "--full" args in
  let list = List.mem "--list" args in
  let selected =
    List.filter (fun a -> not (String.length a >= 2 && String.sub a 0 2 = "--")) args
  in
  if full then Params.scale := Params.Full;
  if list then list_experiments ()
  else begin
    let to_run =
      if selected = [] then experiments
      else
        List.map
          (fun id ->
            match List.find_opt (fun (i, _, _) -> i = id) experiments with
            | Some e -> e
            | None ->
                Printf.eprintf "unknown experiment %S (try --list)\n" id;
                exit 2)
          selected
    in
    Printf.printf "SIRI benchmark suite — %s scale, seed %d\n"
      (if Params.is_full () then "FULL (paper)" else "quick")
      Params.seed;
    let t0 = Unix.gettimeofday () in
    List.iter run_one to_run;
    Printf.printf "\nall done in %.1fs\n" (Unix.gettimeofday () -. t0)
  end
