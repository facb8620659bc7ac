(* siri_cli — inspect SIRI indexes from the command line.

   Data files are TSV: one "key<TAB>value" record per line.

     siri_cli gen --count 1000 > data.tsv
     siri_cli stats                        # telemetry over a sample workload,
                                           # all four structures
     siri_cli stats --index pos data.tsv
     siri_cli get --index mpt data.tsv some-key
     siri_cli prove --index pos data.tsv some-key
     siri_cli diff --index pos v1.tsv v2.tsv
     siri_cli merge --index pos --policy right a.tsv b.tsv
     siri_cli properties --index mbt data.tsv  *)

open Cmdliner
open Siri_core
module Store = Siri_store.Store
module Hash = Siri_crypto.Hash
module Telemetry = Siri_telemetry.Telemetry
module Table = Siri_benchkit.Table
module Ycsb = Siri_workload.Ycsb
module Pool = Siri_parallel.Pool
module Partition = Siri_shard.Partition
module Shard_views = Siri_shard.Views
module Shard_proof = Siri_shard.Shard_proof
module Sharded = Siri_shard.Sharded
module Engine = Siri_forkbase.Engine
module Wal = Siri_wal.Wal
module Durable = Siri_wal.Durable

(* --- index selection ------------------------------------------------------- *)

type index_kind = Pos | Mpt | Mbt | Mvbt | Prolly

let kind_conv =
  Arg.enum
    [ ("pos", Pos); ("mpt", Mpt); ("mbt", Mbt); ("mvbt", Mvbt); ("prolly", Prolly) ]

let index_arg =
  Arg.(
    value
    & opt kind_conv Pos
    & info [ "i"; "index" ] ~docv:"INDEX"
        ~doc:"Index structure: $(b,pos), $(b,mpt), $(b,mbt), $(b,mvbt) or $(b,prolly).")

let make ?pool kind store =
  match kind with
  | Pos ->
      Siri_pos.Pos_tree.generic ?pool
        (Siri_pos.Pos_tree.empty store (Siri_pos.Pos_tree.config ()))
  | Prolly -> Siri_prolly.Prolly.generic ?pool (Siri_prolly.Prolly.empty store)
  | Mpt -> Siri_mpt.Mpt.generic ?pool (Siri_mpt.Mpt.empty store)
  | Mbt ->
      Siri_mbt.Mbt.generic ?pool
        (Siri_mbt.Mbt.empty store (Siri_mbt.Mbt.config ~capacity:1024 ~fanout:4 ()))
  | Mvbt ->
      Siri_mvbt.Mvbt.generic ?pool
        (Siri_mvbt.Mvbt.empty store (Siri_mvbt.Mvbt.config ()))

(* --- tsv io ------------------------------------------------------------------ *)

let read_tsv path =
  let ic = open_in path in
  let rec loop acc n =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line -> (
        match String.index_opt line '\t' with
        | None when line = "" -> loop acc (n + 1)
        | None ->
            close_in ic;
            failwith (Printf.sprintf "%s:%d: missing TAB separator" path n)
        | Some i ->
            let k = String.sub line 0 i in
            let v = String.sub line (i + 1) (String.length line - i - 1) in
            loop ((k, v) :: acc) (n + 1))
  in
  loop [] 1

let load kind path =
  let store = Store.create () in
  let inst = make kind store in
  (store, Generic.of_entries inst (read_tsv path))

let file_arg idx docv =
  Arg.(required & pos idx (some file) None & info [] ~docv)

let key_arg idx = Arg.(required & pos idx (some string) None & info [] ~docv:"KEY")

let dir_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR")

(* --- sharded keyspace plumbing --------------------------------------------- *)

let shards_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Partition the keyspace across $(docv) shards (one independent \
           index per shard, one composite Merkle root over all of them).")

let partition_arg =
  Arg.(
    value
    & opt
        (enum [ ("hash", Partition.Hash); ("range", Partition.Range) ])
        Partition.Hash
    & info [ "partition" ] ~docv:"SCHEME"
        ~doc:"Partition scheme with --shards: $(b,hash) (default) or $(b,range).")

(* Per-shard in-memory views built from a TSV dataset: each shard gets its
   own store and index instance holding exactly the records the spec
   routes to it. *)
let sharded_views kind spec entries =
  let buckets = Array.make spec.Partition.shards [] in
  List.iter
    (fun ((k, _) as e) ->
      let i = Partition.shard_of_key spec k in
      buckets.(i) <- e :: buckets.(i))
    entries;
  Array.map
    (fun part -> Generic.of_entries (make kind (Store.create ())) (List.rev part))
    buckets

let durable_backend_arg =
  Arg.(
    value
    & opt (enum [ ("snapshot", `Snapshot); ("pack", `Pack) ]) `Snapshot
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Checkpoint backend the directory was created with: \
           $(b,snapshot) (default) or $(b,pack).")

let branch_arg =
  Arg.(
    value & opt string "master"
    & info [ "branch" ] ~docv:"BRANCH" ~doc:"Branch to operate on.")

let is_sharded_dir path =
  Sys.file_exists path
  && Sys.is_directory path
  && Sys.file_exists (Filename.concat path "SHARDS")

let open_sharded_dir kind backend dir =
  Sharded.open_ ~backend ~dir
    ~empty_index:(fun () -> make kind (Store.create ()))
    ()

(* --- commands ------------------------------------------------------------------ *)

(* --- telemetry-instrumented sample workload (stats without a FILE) -------- *)

(* Build a YCSB dataset and replay a 50/50 read/write stream against one
   structure with a wall-clock telemetry sink attached; returns the final
   instance and the sink holding counters, latency histograms and spans. *)
let run_sample ?pool ?cache_bytes kind ~records ~ops =
  let store = Store.create ?cache_bytes () in
  let sink = Telemetry.create ~clock:Unix.gettimeofday () in
  Store.set_sink store sink;
  Telemetry.attach_hash_counter sink;
  let y = Ycsb.create ~seed:1 ~n:records () in
  let inst = Generic.load_sorted (make ?pool kind store) (Ycsb.dataset y) in
  let rng = Rng.create 1 in
  let operations =
    Ycsb.operations y ~rng ~theta:0.5 ~mix:{ Ycsb.write_ratio = 0.5 } ~count:ops
  in
  let flush inst pending =
    if pending = [] then inst else inst.Generic.batch (List.rev pending)
  in
  let inst, pending =
    List.fold_left
      (fun (inst, pending) op ->
        match op with
        | Ycsb.Read k ->
            (* Through the full read path (filter + tiered telemetry), not
               the raw closure, so the hit/miss split below has data. *)
            ignore (Generic.get inst k);
            (inst, pending)
        | Ycsb.Write (k, v) ->
            let pending = Kv.Put (k, v) :: pending in
            if List.length pending >= 100 then (flush inst pending, [])
            else (inst, pending))
      (inst, []) operations
  in
  let inst = flush inst pending in
  Telemetry.detach_hash_counter ();
  Store.set_sink store Telemetry.null;
  (inst, sink)

let sample_kinds = [ Mpt; Mbt; Pos; Mvbt ]

let stats_workload ?pool ?cache_bytes ~records ~ops ~json () =
  let results =
    List.map
      (fun kind ->
        let inst, sink = run_sample ?pool ?cache_bytes kind ~records ~ops in
        (inst.Generic.name, inst, sink))
      sample_kinds
  in
  Table.print
    ~title:
      (Printf.sprintf
         "Telemetry counters — YCSB sample workload (%d records, %d ops, %d \
          domain%s)"
         records ops
         (match pool with Some p -> Pool.domains p | None -> 1)
         (match pool with Some p when Pool.domains p > 1 -> "s" | _ -> ""))
    ~headers:
      [ "index"; "node reads"; "node writes"; "unique"; "bytes written";
        "hashes"; "hashed bytes" ]
    (List.map
       (fun (name, _, sink) ->
         let c = Telemetry.counter sink in
         [ name;
           string_of_int (c "store.get");
           string_of_int (c "store.put");
           string_of_int (c "store.put_unique");
           Table.fmt_bytes (c "store.put_bytes");
           string_of_int (c "hash.count");
           Table.fmt_bytes (c "hash.bytes") ])
       results);
  Table.print
    ~title:"Read path — decoded-node cache and negative-lookup filter"
    ~headers:
      [ "index"; "cache hits"; "cache misses"; "hit ratio"; "evictions";
        "filter skips" ]
    (List.map
       (fun (name, _, sink) ->
         let c = Telemetry.counter sink in
         let hits = c "cache.node.hit" and misses = c "cache.node.miss" in
         let ratio =
           if hits + misses = 0 then "-"
           else
             Printf.sprintf "%.1f%%"
               (100. *. float_of_int hits /. float_of_int (hits + misses))
         in
         [ name; string_of_int hits; string_of_int misses; ratio;
           string_of_int (c "cache.node.evict");
           string_of_int (c "read.filter.skip") ])
       results);
  let latency_rows =
    List.concat_map
      (fun (name, _, sink) ->
        List.filter_map
          (fun (op, metric) ->
            match Telemetry.histogram sink metric with
            | None -> None
            | Some h ->
                let us x = Printf.sprintf "%.1f" (x *. 1e6) in
                Some
                  [ name; op;
                    string_of_int (Telemetry.Histo.count h);
                    us (Telemetry.Histo.p50 h);
                    us (Telemetry.Histo.p95 h);
                    us (Telemetry.Histo.p99 h);
                    us (Telemetry.Histo.max_value h) ])
          [ ("lookup", name ^ ".lookup"); ("batch", name ^ ".batch");
            (* Per-tier read latency: the sink is per structure, so the
               global metric names still split by index here. *)
            ("lookup (cache hit)", "read.lookup.hit");
            ("lookup (cache miss)", "read.lookup.miss") ])
      results
  in
  Table.print ~title:"Telemetry latency (per-op histograms)"
    ~headers:[ "index"; "op"; "n"; "p50 us"; "p95 us"; "p99 us"; "max us" ]
    latency_rows;
  (match json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      List.iter
        (fun (name, _, sink) ->
          output_string oc
            (Telemetry.Json.to_string
               (Telemetry.Json.obj
                  [ ("structure", Telemetry.Json.str name);
                    ("records", Telemetry.Json.int records);
                    ("ops", Telemetry.Json.int ops);
                    ("telemetry", Telemetry.to_json sink) ]));
          output_char oc '\n')
        results;
      close_out oc;
      Printf.eprintf "telemetry written to %s\n" path);
  0

let stats_cmd =
  let run_sharded kind spec path =
    let entries = read_tsv path in
    let views = sharded_views kind spec entries in
    Printf.printf "index      : %s\n" views.(0).Generic.name;
    Printf.printf "partition  : %s\n" (Partition.to_string spec);
    Printf.printf "records    : %d\n" (List.length entries);
    Array.iteri
      (fun i v ->
        Printf.printf "shard %-4d : %6d records  root %s\n" i
          (v.Generic.cardinal ())
          (Hash.short v.Generic.root))
      views;
    Printf.printf "composite  : %s\n"
      (Hash.to_hex (Shard_views.composite spec views));
    0
  in
  let run ~pool kind path =
    let store = Store.create () in
    let inst = Generic.load_sorted (make ~pool kind store) (read_tsv path) in
    let st = Store.stats store in
    let pages = Generic.page_set inst in
    Printf.printf "index      : %s\n" inst.Generic.name;
    Printf.printf "domains    : %d\n" (Pool.domains pool);
    Printf.printf "records    : %d\n" (inst.Generic.cardinal ());
    Printf.printf "root       : %s\n" (Hash.to_hex inst.Generic.root);
    Printf.printf "nodes      : %d\n" (Hash.Set.cardinal pages);
    Printf.printf "bytes      : %s\n"
      (Siri_benchkit.Table.fmt_bytes (Store.bytes_of_set store pages));
    Printf.printf "store puts : %d (%d unique)\n" st.Store.puts st.Store.unique_nodes;
    (match kind with
    | Pos | Prolly | Mvbt ->
        let decode_bytes, root =
          match kind with
          | Mvbt ->
              let cfg = Siri_mvbt.Mvbt.config () in
              let t = Siri_mvbt.Mvbt.of_root store cfg inst.Generic.root in
              ((fun () -> Siri_mvbt.Mvbt.stats t), inst.Generic.root)
          | _ ->
              let cfg =
                if kind = Prolly then Siri_prolly.Prolly.default_config
                else Siri_pos.Pos_tree.config ()
              in
              let t = Siri_pos.Pos_tree.of_root store cfg inst.Generic.root in
              ((fun () -> Siri_pos.Pos_tree.stats t), inst.Generic.root)
        in
        ignore root;
        Format.printf "%a" Tree_stats.pp (decode_bytes ())
    | Mpt | Mbt -> ());
    0
  in
  let file_opt =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "TSV dataset to load.  When omitted, a telemetry-instrumented \
             YCSB sample workload is run over all four structures instead.")
  in
  let records =
    Arg.(
      value & opt int 2_000
      & info [ "records" ] ~docv:"N" ~doc:"Sample-workload dataset size.")
  in
  let ops =
    Arg.(
      value & opt int 1_000
      & info [ "ops" ] ~docv:"N" ~doc:"Sample-workload operation count.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:
            "Write the per-structure telemetry as newline-delimited JSON to \
             $(docv) (sample-workload mode only).")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Domains for the parallel commit pipeline (default: the host's \
             recommended domain count, capped at 8; 1 = sequential).  The \
             root hashes are identical for any value.")
  in
  let cache =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache" ] ~docv:"BYTES"
          ~doc:
            "Decoded-node cache budget in bytes for the sample workload \
             (overrides $(b,SIRI_NODE_CACHE); 0 disables).  Default: the \
             environment variable, else disabled.")
  in
  (* A sharded durable directory: per-shard size/key-count balance — the
     figures that decide when an online reshard is worth it. *)
  let run_durable_dir kind backend branch dir =
    match open_sharded_dir kind backend dir with
    | Error e ->
        Format.eprintf "stats: %a@." Siri_wal.Wal.pp_error e;
        2
    | Ok t when not (List.mem branch (Sharded.branches t)) ->
        Printf.eprintf "stats: unknown branch %s\n" branch;
        Sharded.close t;
        2
    | Ok t ->
        let h = Sharded.head t ~branch in
        Printf.printf "partition  : %s\n" (Partition.to_string (Sharded.spec t));
        Printf.printf "generation : %d\n" (Sharded.generation t);
        Printf.printf "branch     : %s (seq %d)\n" branch h.Sharded.seq;
        let stats = Sharded.shard_stats t ~branch in
        let total = Array.fold_left (fun a s -> a + s.Sharded.keys) 0 stats in
        Array.iter
          (fun s ->
            Printf.printf
              "shard %-4d : %6d keys (%4.1f%%)  %6d nodes  %9s  root %s\n"
              s.Sharded.shard s.Sharded.keys
              (if total = 0 then 0.
               else 100. *. float_of_int s.Sharded.keys /. float_of_int total)
              s.Sharded.nodes
              (Table.fmt_bytes s.Sharded.bytes)
              (Hash.short s.Sharded.root))
          stats;
        Printf.printf "records    : %d\n" total;
        Printf.printf "composite  : %s\n" (Hash.to_hex h.Sharded.composite);
        Sharded.close t;
        0
  in
  let dispatch kind backend branch shards partition path records ops json
      domains cache =
    match (shards, path) with
    | _, Some path when is_sharded_dir path ->
        run_durable_dir kind backend branch path
    | Some n, Some path -> run_sharded kind (Partition.make partition ~shards:n) path
    | Some _, None ->
        prerr_endline "stats: --shards needs a FILE dataset";
        2
    | None, _ ->
        let pool =
          match domains with
          | Some d -> Pool.create ~domains:d ()
          | None -> Pool.create ()
        in
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () ->
            match path with
            | Some path -> run ~pool kind path
            | None ->
                stats_workload ~pool ?cache_bytes:cache ~records ~ops ~json ())
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Print index statistics for a TSV file, per-shard size/key-count \
          balance for a sharded durable directory, or (without FILE) run a \
          telemetry-instrumented sample workload over all four structures \
          and print per-structure counters, node-cache hit ratios and \
          per-tier p50/p95/p99 latencies.")
    Term.(
      const dispatch $ index_arg $ durable_backend_arg $ branch_arg
      $ shards_arg $ partition_arg $ file_opt
      $ records $ ops $ json $ domains $ cache)

let get_cmd =
  let run kind path key =
    let _, inst = load kind path in
    match inst.Generic.lookup key with
    | Some v ->
        print_endline v;
        0
    | None ->
        prerr_endline "key not found";
        1
  in
  Cmd.v (Cmd.info "get" ~doc:"Look up one key.")
    Term.(const run $ index_arg $ file_arg 0 "FILE" $ key_arg 1)

let prove_cmd =
  let keys_arg =
    Arg.(non_empty & pos_right 0 string [] & info [] ~docv:"KEY")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the encoded multiproof (Frame-wrapped wire format) to $(docv).")
  in
  let write_out out encoded =
    match out with
    | None -> ()
    | Some file ->
        let oc = open_out_bin file in
        output_string oc encoded;
        close_out oc;
        Printf.eprintf "wrote %d bytes to %s\n" (String.length encoded) file
  in
  let run_sharded kind spec path keys out =
    let views = sharded_views kind spec (read_tsv path) in
    let sp = Shard_proof.prove ~views spec keys in
    List.iter
      (fun (k, claim) ->
        Printf.printf "%-24s : shard %d, %s\n" k
          (Partition.shard_of_key spec k)
          (match claim with Some v -> "present, value " ^ v | None -> "absent"))
      (Shard_proof.claims sp);
    let encoded = Shard_proof.encode sp in
    Printf.printf "proof      : %d shard part%s of %d, %d bytes encoded\n"
      (List.length sp.Shard_proof.parts)
      (if List.length sp.Shard_proof.parts = 1 then "" else "s")
      spec.Partition.shards (String.length encoded);
    let composite = Shard_views.composite spec views in
    Printf.printf "composite  : %s\n" (Hash.to_hex composite);
    let verifier = make kind (Store.create ()) in
    let ok = Shard_proof.verify ~verifier ~composite sp in
    Printf.printf "verified   : %b\n" ok;
    write_out out encoded;
    if ok then 0 else 1
  in
  let run kind shards partition path keys out =
    match shards with
    | Some n -> run_sharded kind (Partition.make partition ~shards:n) path keys out
    | None ->
    let _, inst = load kind path in
    let mp = Generic.prove_many inst keys in
    List.iter
      (fun (k, claim) ->
        Printf.printf "%-24s : %s\n" k
          (match claim with Some v -> "present, value " ^ v | None -> "absent"))
      mp.Multiproof.claims;
    let singles =
      List.map (fun k -> inst.Generic.prove k) (Multiproof.keys mp)
    in
    let single_bytes =
      List.fold_left (fun acc p -> acc + Proof.size_bytes p) 0 singles
    in
    let encoded = Multiproof.encode mp in
    Printf.printf "multiproof : %d claims, %d nodes, %d bytes encoded\n"
      (List.length mp.Multiproof.claims)
      (List.length mp.Multiproof.nodes)
      (String.length encoded);
    Printf.printf "vs singles : %d proofs, %d bytes (%.0f%% of singles)\n"
      (List.length singles) single_bytes
      (if single_bytes = 0 then 100.
       else 100. *. float_of_int (String.length encoded) /. float_of_int single_bytes);
    Printf.printf "root       : %s\n" (Hash.to_hex inst.Generic.root);
    let ok = Generic.verify_many inst ~root:inst.Generic.root mp in
    Printf.printf "verified   : %b\n" ok;
    write_out out encoded;
    if ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "prove"
       ~doc:
         "Produce and verify a batched Merkle multiproof (membership and \
          absence) for one or more KEYs, reporting its size against the \
          equivalent single proofs.  With $(b,--shards) the dataset is \
          partitioned and a two-layer sharded proof (shard multiproofs + \
          top shard-root vector) is produced and verified against the \
          composite root.")
    Term.(
      const run $ index_arg $ shards_arg $ partition_arg $ file_arg 0 "FILE"
      $ keys_arg $ out_arg)

let verify_proof_cmd =
  let proof_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"PROOF")
  in
  let root_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "root" ] ~docv:"HEX"
          ~doc:"Trusted 64-char hex root digest to verify against.")
  in
  let data_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "data" ] ~docv:"FILE"
          ~doc:
            "TSV dataset to rebuild the index from; its root becomes the \
             trusted digest.  Exactly one of $(b,--root) and $(b,--data) is \
             required.")
  in
  let run kind proof_file root_hex data =
    let read_file path =
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    let blob = read_file proof_file in
    (* [rebuild] turns --data into the trusted digest for whichever proof
       shape the blob turned out to be. *)
    let trusted rebuild =
      match (root_hex, data) with
      | Some hex, None -> (
          match Hash.of_hex hex with
          | root -> Some root
          | exception Invalid_argument _ ->
              prerr_endline "malformed --root (need 64 hex chars)";
              None)
      | None, Some path -> Some (rebuild path)
      | _ ->
          prerr_endline "exactly one of --root and --data is required";
          None
    in
    if Shard_proof.is_encoded blob then
      match Shard_proof.decode blob with
      | Error (`Malformed why) ->
          Printf.eprintf "malformed proof: %s\n" why;
          2
      | Error (`Tampered why) ->
          Printf.eprintf "tampered proof: %s\n" why;
          2
      | Ok sp -> (
          (* --data is partitioned with the proof's own spec: the spec is
             bound into the composite digest, so a proof lying about it
             cannot verify anyway. *)
          let rebuild path =
            Shard_views.composite sp.Shard_proof.spec
              (sharded_views kind sp.Shard_proof.spec (read_tsv path))
          in
          match trusted rebuild with
          | None -> 2
          | Some composite ->
              let verifier = make kind (Store.create ()) in
              let ok = Shard_proof.verify ~verifier ~composite sp in
              let claims = Shard_proof.claims sp in
              Printf.printf "sharded  : %s, %d of %d shards touched\n"
                (Partition.to_string sp.Shard_proof.spec)
                (List.length sp.Shard_proof.parts)
                sp.Shard_proof.spec.Partition.shards;
              Printf.printf "claims   : %d (%d absent)\n" (List.length claims)
                (List.length (List.filter (fun (_, v) -> v = None) claims));
              Printf.printf "root     : %s\n" (Hash.to_hex composite);
              Printf.printf "verified : %b\n" ok;
              if ok then 0 else 1)
    else
      let rebuild path =
        let _, inst = load kind path in
        inst.Generic.root
      in
      match trusted rebuild with
      | None -> 2
      | Some root -> (
          match Multiproof.decode blob with
          | Error (`Malformed why) ->
              Printf.eprintf "malformed proof: %s\n" why;
              2
          | Error (`Tampered why) ->
              Printf.eprintf "tampered proof: %s\n" why;
              2
          | Ok mp ->
              (* An empty instance carries the per-kind verification logic
                 (and, for MBT, the tree geometry); verification itself never
                 touches the store. *)
              let inst = make kind (Store.create ()) in
              let ok = inst.Generic.verify_many ~root mp in
              Printf.printf "claims   : %d (%d absent)\n"
                (List.length mp.Multiproof.claims)
                (List.length
                   (List.filter (fun (_, v) -> v = None) mp.Multiproof.claims));
              Printf.printf "nodes    : %d (%d bytes)\n"
                (List.length mp.Multiproof.nodes)
                (Multiproof.size_bytes mp);
              Printf.printf "root     : %s\n" (Hash.to_hex root);
              Printf.printf "verified : %b\n" ok;
              if ok then 0 else 1)
  in
  Cmd.v
    (Cmd.info "verify-proof"
       ~doc:
         "Decode an encoded proof — flat multiproof or sharded two-layer \
          proof, detected from the blob — and verify it against a trusted \
          root ($(b,--root) or the root of a rebuilt $(b,--data) index).  \
          Exits 0 if verified, 1 if refused, 2 if the file is malformed or \
          tampered.")
    Term.(const run $ index_arg $ proof_arg $ root_arg $ data_arg)

let diff_cmd =
  let run kind path1 path2 =
    let store = Store.create () in
    let inst = make kind store in
    let v1 = Generic.of_entries inst (read_tsv path1) in
    let v2 = Generic.of_entries inst (read_tsv path2) in
    let diffs = v1.Generic.diff v2.Generic.root in
    List.iter
      (fun { Kv.key; left; right } ->
        match (left, right) with
        | Some _, None -> Printf.printf "- %s\n" key
        | None, Some _ -> Printf.printf "+ %s\n" key
        | _ -> Printf.printf "~ %s\n" key)
      diffs;
    Printf.eprintf "%d records differ\n" (List.length diffs);
    0
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Diff two TSV datasets through the index ($(b,-) left-only, $(b,+) right-only, $(b,~) changed).")
    Term.(const run $ index_arg $ file_arg 0 "FILE1" $ file_arg 1 "FILE2")

let policy_arg =
  Arg.(
    value
    & opt (enum [ ("left", Kv.Prefer_left); ("right", Kv.Prefer_right); ("fail", Kv.Fail_on_conflict) ])
        Kv.Fail_on_conflict
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:"Conflict policy: $(b,left), $(b,right) or $(b,fail).")

let merge_cmd =
  let run kind policy path1 path2 =
    let store = Store.create () in
    let inst = make kind store in
    let v1 = Generic.of_entries inst (read_tsv path1) in
    let v2 = Generic.of_entries inst (read_tsv path2) in
    match v1.Generic.merge policy v2.Generic.root with
    | Ok merged ->
        List.iter
          (fun (k, v) -> Printf.printf "%s\t%s\n" k v)
          (merged.Generic.to_list ());
        Printf.eprintf "merged %d records\n" (merged.Generic.cardinal ());
        0
    | Error conflicts ->
        List.iter
          (fun c ->
            Printf.eprintf "conflict: %s (%s vs %s)\n" c.Kv.key c.Kv.left_value
              c.Kv.right_value)
          conflicts;
        1
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:"Merge two TSV datasets (union of records); prints the result as TSV.")
    Term.(const run $ index_arg $ policy_arg $ file_arg 0 "FILE1" $ file_arg 1 "FILE2")

let properties_cmd =
  let run kind path =
    let entries = read_tsv path in
    let store = Store.create () in
    let build e = Generic.of_entries (make kind store) e in
    let si =
      Properties.structurally_invariant ~build ~entries ~permutations:3 ~seed:7
    in
    let ri =
      match entries with
      | [] -> true
      | (k, v) :: _ ->
          Properties.recursively_identical ~build
            ~entries:(List.tl entries)
            ~extra:(k, v)
    in
    let ur =
      Properties.universally_reusable ~build ~entries
        ~more:(List.init 20 (fun i -> (Printf.sprintf "zz-extra-%d" i, string_of_int i)))
    in
    Printf.printf "structurally invariant : %b\n" si;
    Printf.printf "recursively identical  : %b\n" ri;
    Printf.printf "universally reusable   : %b\n" ur;
    if si && ri && ur then begin
      print_endline "=> the index behaves as a SIRI instance on this data";
      0
    end
    else 1
  in
  Cmd.v
    (Cmd.info "properties"
       ~doc:"Check the three SIRI properties (Definition 3.1) on this data.")
    Term.(const run $ index_arg $ file_arg 0 "FILE")

let range_cmd =
  let lo = Arg.(value & opt (some string) None & info [ "lo" ] ~docv:"LO" ~doc:"Lower bound (inclusive).") in
  let hi = Arg.(value & opt (some string) None & info [ "hi" ] ~docv:"HI" ~doc:"Upper bound (inclusive).") in
  let run kind path lo hi =
    let _, inst = load kind path in
    let records = inst.Generic.range ~lo ~hi in
    List.iter (fun (k, v) -> Printf.printf "%s\t%s\n" k v) records;
    Printf.eprintf "%d records in range\n" (List.length records);
    0
  in
  Cmd.v
    (Cmd.info "range"
       ~doc:"List records with LO <= key <= HI (either bound may be omitted).")
    Term.(const run $ index_arg $ file_arg 0 "FILE" $ lo $ hi)

let scan_cmd =
  let lo =
    Arg.(
      value
      & opt (some string) None
      & info [ "lo" ] ~docv:"LO" ~doc:"Lower bound (inclusive).")
  in
  let hi =
    Arg.(
      value
      & opt (some string) None
      & info [ "hi" ] ~docv:"HI" ~doc:"Upper bound (exclusive).")
  in
  let limit =
    Arg.(
      value & opt int 0
      & info [ "limit" ] ~docv:"N"
          ~doc:"Stop after $(docv) records (0 = unbounded).")
  in
  let count_only =
    Arg.(
      value & flag
      & info [ "count" ]
          ~doc:"Print only the number of records in range (stops early \
                under $(b,--limit)).")
  in
  let consume count_only limit seq =
    if count_only then begin
      let n = ref 0 in
      (try
         Seq.iter
           (fun _ ->
             incr n;
             if limit > 0 && !n >= limit then raise Exit)
           seq
       with Exit -> ());
      Printf.printf "%d\n" !n
    end
    else begin
      let n = ref 0 in
      (try
         Seq.iter
           (fun (k, v) ->
             incr n;
             Printf.printf "%s\t%s\n" k v;
             if limit > 0 && !n >= limit then raise Exit)
           seq
       with Exit -> ());
      Printf.eprintf "%d record%s in range\n" !n (if !n = 1 then "" else "s")
    end;
    0
  in
  let run kind backend branch lo hi limit count_only target =
    let scan_target () =
      if is_sharded_dir target then
        (* sharded durable directory: routed scan across the shards *)
        match open_sharded_dir kind backend target with
        | Error e ->
            Format.eprintf "scan: %a@." Wal.pp_error e;
            2
        | Ok t ->
            Fun.protect
              ~finally:(fun () -> Sharded.close t)
              (fun () ->
                if not (List.mem branch (Sharded.branches t)) then begin
                  Printf.eprintf "scan: unknown branch %s\n" branch;
                  2
                end
                else consume count_only limit (Sharded.scan ?lo ?hi t ~branch))
      else if Sys.is_directory target then
        (* flat durable directory: scan the branch-head index *)
        match
          Durable.open_ ~backend ~dir:target
            ~empty_index:(make kind (Store.create ()))
            ()
        with
        | Error e ->
            Format.eprintf "scan: %a@." Wal.pp_error e;
            2
        | Ok d ->
            Fun.protect
              ~finally:(fun () -> Durable.close d)
              (fun () ->
                consume count_only limit
                  (Engine.scan ?lo ?hi (Durable.engine d) ~branch))
      else
        (* TSV dataset: build the index in memory, then stream *)
        let _, inst = load kind target in
        consume count_only limit (Generic.scan ?lo ?hi inst)
    in
    match scan_target () with
    | rc -> rc
    | exception Generic.Unsupported name ->
        Printf.eprintf "scan: index kind %S does not support ordered scans\n"
          name;
        2
  in
  Cmd.v
    (Cmd.info "scan"
       ~doc:
         "Stream records with LO <= key < HI in key order.  TARGET is a TSV \
          dataset, a flat durable directory, or a sharded durable directory \
          (detected by its SHARDS manifest) — sharded range-partitioned \
          scans touch only the shards the bounds route to.")
    Term.(
      const run $ index_arg $ durable_backend_arg $ branch_arg $ lo $ hi
      $ limit $ count_only $ file_arg 0 "TARGET")

let reshard_cmd =
  let shards_req =
    Arg.(
      required
      & opt (some int) None
      & info [ "shards" ] ~docv:"M" ~doc:"New shard count.")
  in
  let run kind backend m dir =
    match open_sharded_dir kind backend dir with
    | Error e ->
        Format.eprintf "reshard: %a@." Wal.pp_error e;
        2
    | Ok t -> (
        Printf.printf "from       : %s (generation %d)\n"
          (Partition.to_string (Sharded.spec t))
          (Sharded.generation t);
        match Sharded.reshard t ~shards:m with
        | exception Invalid_argument msg ->
            Printf.eprintf "reshard: %s\n" msg;
            Sharded.close t;
            2
        | Error e ->
            Format.eprintf "reshard: %a@." Wal.pp_error e;
            Sharded.close t;
            2
        | Ok t ->
            Printf.printf "to         : %s (generation %d)\n"
              (Partition.to_string (Sharded.spec t))
              (Sharded.generation t);
            let stats = Sharded.shard_stats t ~branch:"master" in
            let total =
              Array.fold_left (fun a s -> a + s.Sharded.keys) 0 stats
            in
            Array.iter
              (fun s ->
                Printf.printf "shard %-4d : %6d keys (%4.1f%%)  root %s\n"
                  s.Sharded.shard s.Sharded.keys
                  (if total = 0 then 0.
                   else
                     100. *. float_of_int s.Sharded.keys /. float_of_int total)
                  (Hash.short s.Sharded.root))
              stats;
            List.iter
              (fun b ->
                let h = Sharded.head t ~branch:b in
                Printf.printf "branch     : %-12s composite %s (seq %d)\n" b
                  (Hash.short h.Sharded.composite)
                  h.Sharded.seq)
              (Sharded.branches t);
            Sharded.close t;
            0)
  in
  Cmd.v
    (Cmd.info "reshard"
       ~doc:
         "Online reshard a sharded durable directory to $(b,--shards) M: \
          stream every live entry out of the old shards in key order, \
          bulk-load M fresh shards in a staging generation, and atomically \
          switch the SHARDS manifest — a crash at any point leaves the old \
          or the new layout, never a mix.")
    Term.(
      const run $ index_arg $ durable_backend_arg $ shards_req $ dir_arg)

let snapshot_cmd =
  let out_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"SNAPSHOT")
  in
  let run kind path out =
    let store, inst = load kind path in
    Store.save store out;
    Printf.printf "root  : %s\n" (Hash.to_hex inst.Generic.root);
    Printf.printf "nodes : %d\n" (Store.stats store).Store.unique_nodes;
    Printf.printf "saved : %s\n" out;
    0
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:"Build an index from a TSV file and save the node store to SNAPSHOT.")
    Term.(const run $ index_arg $ file_arg 0 "FILE" $ out_arg)

module Pack = Siri_pack.Pack

let scrub_backend_arg =
  Arg.(
    value
    & opt (enum [ ("store", `Store); ("pack", `Pack) ]) `Store
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "What TARGET is: $(b,store) (default), a saved node-store \
           snapshot file, or $(b,pack), a log-structured pack directory.")

let scrub_pack dir =
  match Pack.open_ dir with
  | Error (`Tampered msg) ->
      Printf.eprintf "scrub: %s\n" msg;
      2
  | Ok (p, r) ->
      let corrupt = Pack.scrub p in
      Printf.printf "segments   : %d\n" (List.length (Pack.segment_ids p));
      Printf.printf "records    : %d\n" (Pack.count p);
      Printf.printf "bytes      : %s\n" (Table.fmt_bytes (Pack.stored_bytes p));
      Printf.printf "clamped    : %d byte%s of torn tail\n" r.Pack.clamped_bytes
        (if r.Pack.clamped_bytes = 1 then "" else "s");
      if r.Pack.index_rebuilt then print_endline "index      : rebuilt from segments";
      List.iter
        (fun h -> Printf.printf "corrupt    : %s\n" (Hash.to_hex h))
        corrupt;
      Pack.close p;
      if corrupt <> [] then begin
        print_endline "=> unrecoverable corruption found";
        2
      end
      else if r.Pack.clamped_bytes > 0 then begin
        print_endline "=> recovered (torn segment tail clamped)";
        1
      end
      else begin
        print_endline "=> pack is intact";
        0
      end

let scrub_cmd =
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
        ~doc:
          "Verify digests while loading and reject the file outright on any \
           damage, instead of best-effort loading followed by a scrub report \
           ($(b,--backend store) only).")
  in
  let run strict backend path =
    match backend with
    | `Pack -> scrub_pack path
    | `Store -> (
        match Store.load_checked ~verify:strict path with
        | Error (`Malformed msg) ->
            Printf.eprintf "scrub: %s\n" msg;
            2
        | Ok store ->
            let report = Store.scrub store in
            Format.printf "%a" Store.pp_scrub_report report;
            if Store.scrub_clean report then begin
              print_endline "=> store is intact";
              0
            end
            else begin
              print_endline "=> integrity violations found";
              1
            end)
  in
  let target_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET")
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:
         "Audit stored nodes: re-hash every payload against its digest.  \
          $(b,--backend store) audits a snapshot file (exit 1 on integrity \
          violations, 2 if unreadable).  $(b,--backend pack) audits a pack \
          directory (exit 1 when only a torn segment tail was clamped, 2 on \
          unrecoverable damage: corrupt manifest, missing segment or \
          mid-segment checksum mismatch).")
    Term.(const run $ strict $ scrub_backend_arg $ target_arg)

(* --- pack: build / migrate / compact ------------------------------------------ *)

let pack_summary p =
  Printf.printf "records  : %d\n" (Pack.count p);
  Printf.printf "segments : %s\n"
    (String.concat ", "
       (List.map Siri_pack.Segment.filename (Pack.segment_ids p)));
  Printf.printf "bytes    : %s\n" (Table.fmt_bytes (Pack.stored_bytes p))

let pack_cmd =
  let from_snapshot =
    Arg.(
      value & flag
      & info [ "from-snapshot" ]
          ~doc:
            "Treat SRC as a saved node-store snapshot instead of a TSV \
             dataset and migrate every node into the pack — the snapshot \
             format stays readable precisely so existing stores can move \
             to the pack backend.")
  in
  let out_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"DIR")
  in
  let run_sharded kind spec src dir =
    match
      Sharded.open_ ~backend:`Pack ~spec ~dir
        ~empty_index:(fun () -> make kind (Store.create ()))
        ()
    with
    | Error e ->
        Format.eprintf "pack: %a@." Siri_wal.Wal.pp_error e;
        2
    | Ok t ->
        let ops = List.map (fun (k, v) -> Kv.Put (k, v)) (read_tsv src) in
        let h = Sharded.commit t ~branch:"master" ~message:"pack" ops in
        (* Checkpoint so the records land in the per-shard pack segments
           and the journals truncate — the shape a served directory has. *)
        Sharded.checkpoint t;
        Printf.printf "partition : %s\n" (Partition.to_string spec);
        Array.iteri
          (fun i r -> Printf.printf "shard %-3d : root %s\n" i (Hash.short r))
          h.Sharded.roots;
        Printf.printf "composite : %s (seq %d)\n"
          (Hash.to_hex h.Sharded.composite)
          h.Sharded.seq;
        Sharded.close t;
        0
  in
  let run kind from_snapshot shards partition src dir =
    match shards with
    | Some n ->
        if from_snapshot then begin
          prerr_endline "pack: --from-snapshot and --shards are exclusive";
          2
        end
        else run_sharded kind (Partition.make partition ~shards:n) src dir
    | None -> (
    match Pack.open_ dir with
    | Error (`Tampered msg) ->
        Printf.eprintf "pack: %s\n" msg;
        2
    | Ok (p, _) ->
        if from_snapshot then begin
          let loaded = Store.load src in
          let batch = ref [] in
          Store.iter_nodes loaded (fun bytes children ->
              batch := (Hash.of_string bytes, bytes, children) :: !batch);
          Pack.append p (List.rev !batch)
        end
        else begin
          (* Write-through build: every fresh node the index creates goes
             straight to the pack. *)
          let store = Store.create () in
          Pack.attach p store;
          let inst = Generic.of_entries (make kind store) (read_tsv src) in
          Printf.printf "root     : %s\n" (Hash.to_hex inst.Generic.root)
        end;
        pack_summary p;
        Pack.close p;
        0)
  in
  Cmd.v
    (Cmd.info "pack"
       ~doc:
         "Build a log-structured pack directory from a TSV dataset (or, \
          with $(b,--from-snapshot), migrate a saved node store into one).  \
          With $(b,--shards) the dataset is committed into a sharded \
          durable directory whose shards each use a pack backend.")
    Term.(
      const run $ index_arg $ from_snapshot $ shards_arg $ partition_arg
      $ file_arg 0 "SRC" $ out_arg)

let compact_cmd =
  let roots =
    Arg.(
      value & opt_all string []
      & info [ "root" ] ~docv:"HASH"
          ~doc:
            "Hex hash of a live root; repeatable.  Everything reachable \
             from the given roots survives, the rest is dropped.  With no \
             roots the pack is left untouched.")
  in
  let run roots dir =
    match Pack.open_ dir with
    | Error (`Tampered msg) ->
        Printf.eprintf "compact: %s\n" msg;
        2
    | Ok (p, _) -> (
        match List.map Hash.of_hex roots with
        | exception Invalid_argument _ ->
            Printf.eprintf "compact: malformed --root hash\n";
            Pack.close p;
            2
        | [] ->
            print_endline "no roots given; nothing dropped";
            pack_summary p;
            Pack.close p;
            0
        | roots -> (
            match List.find_opt (fun h -> not (Pack.mem p h)) roots with
            | Some h ->
                Printf.eprintf "compact: root %s not in pack\n" (Hash.to_hex h);
                Pack.close p;
                2
            | None ->
                (* Reachability closure through the pack's child lists. *)
                let live = ref Hash.Set.empty in
                let rec walk h =
                  if (not (Hash.Set.mem h !live)) && Pack.mem p h then begin
                    live := Hash.Set.add h !live;
                    match Pack.get p h with
                    | Some (_, children) -> List.iter walk children
                    | None -> ()
                  end
                in
                List.iter walk roots;
                let dropped = Pack.compact p ~live:!live in
                Printf.printf "dropped  : %d record%s\n" (List.length dropped)
                  (if List.length dropped = 1 then "" else "s");
                pack_summary p;
                Pack.close p;
                0))
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:
         "Compact a pack directory: rewrite the records reachable from the \
          given $(b,--root) hashes into fresh segments, atomically flip the \
          manifest, and delete the old segments.")
    Term.(
      const run $ roots
      $ Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"))

(* --- durability: recover / checkpoint ---------------------------------------- *)

(* Sharded variant of the recover/checkpoint report: per-shard replay
   stats plus the top-journal clamp and the rolled-back (published-but-
   not-sequenced) record count, then the composite head per branch. *)
let sharded_durable_run ~checkpoint kind backend spec dir =
  match
    Sharded.open_ ~backend ?spec ~dir
      ~empty_index:(fun () -> make kind (Store.create ()))
      ()
  with
  | Error e ->
      Format.eprintf "recover: %a@." Wal.pp_error e;
      2
  | Ok t ->
      let r = Sharded.recovery t in
      Printf.printf "partition  : %s\n" (Partition.to_string (Sharded.spec t));
      Printf.printf "last seq   : %d\n" r.Sharded.last_seq;
      Printf.printf "top clamp  : %d byte%s of torn tail\n"
        r.Sharded.top_clamped_bytes
        (if r.Sharded.top_clamped_bytes = 1 then "" else "s");
      if r.Sharded.capped > 0 then
        Printf.printf "rolled back: %d unpublished shard record%s\n"
          r.Sharded.capped
          (if r.Sharded.capped = 1 then "" else "s");
      Array.iteri
        (fun i sr ->
          Printf.printf
            "shard %-4d : generation %d, replayed %d, clamped %d byte%s\n" i
            sr.Durable.generation sr.Durable.replayed sr.Durable.clamped_bytes
            (if sr.Durable.clamped_bytes = 1 then "" else "s"))
        r.Sharded.shards;
      List.iter
        (fun b ->
          let h = Sharded.head t ~branch:b in
          Printf.printf "branch     : %-12s composite %s (seq %d)\n" b
            (Hash.short h.Sharded.composite) h.Sharded.seq)
        (Sharded.branches t);
      if checkpoint then begin
        Sharded.checkpoint t;
        print_endline "checkpoint : all shards checkpointed, top journal compacted"
      end;
      Sharded.close t;
      if
        r.Sharded.top_clamped_bytes > 0
        || r.Sharded.capped > 0
        || Array.exists (fun sr -> sr.Durable.clamped_bytes > 0) r.Sharded.shards
      then begin
        print_endline "=> recovered (unpublished tail rolled back)";
        1
      end
      else begin
        print_endline "=> clean";
        0
      end

(* Shared by recover and checkpoint: open (recovering), print the report,
   optionally checkpoint, and exit with the established convention —
   0 clean, 1 recovered-with-clamp, 2 unrecoverable. *)
let durable_run ~checkpoint kind backend dir =
  match
    Durable.open_ ~backend ~dir ~empty_index:(make kind (Store.create ())) ()
  with
  | Error e ->
      Format.eprintf "recover: %a@." Wal.pp_error e;
      2
  | Ok t ->
      let r = Durable.recovery t in
      Printf.printf "snapshot   : generation %d\n" r.Durable.generation;
      Printf.printf "replayed   : %d record%s\n" r.Durable.replayed
        (if r.Durable.replayed = 1 then "" else "s");
      if r.Durable.skipped > 0 then
        Printf.printf "skipped    : %d (already in the snapshot)\n"
          r.Durable.skipped;
      Printf.printf "clamped    : %d byte%s of torn tail\n"
        r.Durable.clamped_bytes
        (if r.Durable.clamped_bytes = 1 then "" else "s");
      let engine = Durable.engine t in
      List.iter
        (fun b ->
          let h = Engine.head engine b in
          Printf.printf "branch     : %-12s %s (version %d)\n" b
            (Hash.short h.Engine.id) h.Engine.version)
        (Engine.branches engine);
      if checkpoint then begin
        Durable.checkpoint t;
        Printf.printf "checkpoint : journal truncated to %d bytes\n"
          (Durable.journal_bytes t)
      end;
      Durable.close t;
      if r.Durable.clamped_bytes > 0 then begin
        print_endline "=> recovered (torn journal tail clamped)";
        1
      end
      else begin
        print_endline "=> clean";
        0
      end

(* A sharded directory is self-describing (its SHARDS manifest), so
   recover/checkpoint auto-detect one; --shards is only needed to create
   a fresh sharded directory (or to assert the expected count — a
   mismatch with the manifest is refused). *)
let durable_dispatch ~checkpoint kind backend shards partition dir =
  match shards with
  | Some n ->
      sharded_durable_run ~checkpoint kind backend
        (Some (Partition.make partition ~shards:n))
        dir
  | None ->
      if is_sharded_dir dir then
        sharded_durable_run ~checkpoint kind backend None dir
      else durable_run ~checkpoint kind backend dir

let recover_cmd =
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Recover a durable engine directory: load the manifest snapshot, \
          replay the commit journal, clamp any torn tail.  Sharded \
          directories (or $(b,--shards)) replay every shard journal capped \
          at the last published composite and verify the recomputed \
          composite root.  Exits 0 when the journal was clean, 1 when a \
          torn or unpublished tail was rolled back, 2 when the directory \
          is unrecoverable (corrupt journal, snapshot or composite \
          mismatch).")
    Term.(
      const (durable_dispatch ~checkpoint:false)
      $ index_arg $ durable_backend_arg $ shards_arg $ partition_arg $ dir_arg)

let checkpoint_cmd =
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:
         "Recover a durable engine directory, then checkpoint it: write the \
          next-generation snapshot, atomically publish the manifest and \
          truncate the journal (all shards plus the top journal for a \
          sharded directory).  Same exit codes as $(b,recover).")
    Term.(
      const (durable_dispatch ~checkpoint:true)
      $ index_arg $ durable_backend_arg $ shards_arg $ partition_arg $ dir_arg)

(* --- connect: client mode against a running siri_serve ----------------------- *)

module Server = Siri_server.Server
module Client = Siri_server.Client

let connect_cmd =
  let unix_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "unix" ] ~docv:"PATH" ~doc:"Server Unix-domain socket.")
  in
  let tcp_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT" ~doc:"Server TCP loopback port.")
  in
  let branch =
    Arg.(
      value & opt string "master"
      & info [ "branch" ] ~docv:"BRANCH" ~doc:"Branch to operate on.")
  in
  let deadline_ms =
    Arg.(
      value & opt int 0
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Per-request deadline; the server refuses late work with a \
                timeout instead of serving it stale.")
  in
  let get_key =
    Arg.(value & opt (some string) None & info [ "get" ] ~docv:"KEY")
  in
  let prove_key =
    Arg.(
      value
      & opt (some string) None
      & info [ "prove" ] ~docv:"KEY"
          ~doc:"Fetch a multiproof for KEY and verify it client-side \
                against the server's root.")
  in
  let puts =
    Arg.(
      value & opt_all string []
      & info [ "put" ] ~docv:"KEY=VALUE"
          ~doc:"Commit KEY=VALUE (repeatable; one idempotent group-commit \
                request).")
  in
  let do_head = Arg.(value & flag & info [ "head" ] ~doc:"Print the branch head.") in
  let do_scan =
    Arg.(
      value & flag
      & info [ "scan" ]
          ~doc:"Stream the branch's records in key order (bounded by \
                $(b,--lo)/$(b,--hi), capped by $(b,--limit)), printed as \
                TSV.")
  in
  let scan_lo =
    Arg.(
      value
      & opt (some string) None
      & info [ "lo" ] ~docv:"LO" ~doc:"Scan lower bound (inclusive).")
  in
  let scan_hi =
    Arg.(
      value
      & opt (some string) None
      & info [ "hi" ] ~docv:"HI" ~doc:"Scan upper bound (exclusive).")
  in
  let scan_limit =
    Arg.(
      value & opt int 0
      & info [ "limit" ] ~docv:"N"
          ~doc:"Cap the scan at $(docv) records server-side (0 = unbounded).")
  in
  let do_stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print the server's telemetry sink as JSON — the \
                $(b,server.req.*), $(b,server.commit.*) counters and \
                latency histograms land here.")
  in
  let run index unix_path tcp_port branch deadline_ms get_key prove_key puts
      do_head do_stats do_scan scan_lo scan_hi scan_limit =
    let addr =
      match (unix_path, tcp_port) with
      | Some p, _ -> Some (`Unix p)
      | None, Some p -> Some (`Tcp p)
      | None, None -> None
    in
    match addr with
    | None ->
        prerr_endline "connect: need --unix PATH or --tcp PORT";
        2
    | Some addr -> (
        match Client.connect ~addr () with
        | Error e ->
            Printf.eprintf "connect: %s\n" (Client.error_to_string e);
            1
        | Ok c ->
            let deadline_ms = if deadline_ms <= 0 then None else Some deadline_ms in
            let fail what e =
              Printf.eprintf "%s: %s\n" what (Client.error_to_string e);
              1
            in
            let rc =
              if do_stats then
                match Client.stats ?deadline_ms c with
                | Ok json ->
                    print_endline json;
                    0
                | Error e -> fail "stats" e
              else if do_head then
                match Client.head ?deadline_ms c ~branch with
                | Ok (id, root, version) ->
                    Printf.printf "head    : %s (version %d)\nroot    : %s\n"
                      (Hash.short id) version (Hash.short root);
                    0
                | Error e -> fail "head" e
              else if do_scan then begin
                match
                  Client.scan ?deadline_ms ?lo:scan_lo ?hi:scan_hi
                    ~limit:scan_limit c ~branch
                with
                | Ok entries ->
                    List.iter
                      (fun (k, v) -> Printf.printf "%s\t%s\n" k v)
                      entries;
                    Printf.eprintf "%d record%s in range\n"
                      (List.length entries)
                      (if List.length entries = 1 then "" else "s");
                    0
                | Error e -> fail "scan" e
              end
              else if puts <> [] then begin
                let ops =
                  List.filter_map
                    (fun kv ->
                      match String.index_opt kv '=' with
                      | None ->
                          Printf.eprintf "connect: skipping %S (want KEY=VALUE)\n" kv;
                          None
                      | Some i ->
                          Some
                            (Kv.Put
                               ( String.sub kv 0 i,
                                 String.sub kv (i + 1)
                                   (String.length kv - i - 1) )))
                    puts
                in
                match
                  Client.commit ?deadline_ms c ~branch ~message:"cli" ops
                with
                | Ok (id, version, group_size) ->
                    Printf.printf "commit  : %s (version %d, group of %d)\n"
                      (Hash.short id) version group_size;
                    0
                | Error e -> fail "commit" e
              end
              else
                match get_key with
                | Some key -> (
                    match Client.get ?deadline_ms c ~branch key with
                    | Ok (Some v) ->
                        print_endline v;
                        0
                    | Ok None ->
                        Printf.eprintf "%s: not found\n" key;
                        1
                    | Error e -> fail "get" e)
                | None -> (
                    match prove_key with
                    | Some key -> (
                        match Client.prove_many ?deadline_ms c ~branch [ key ] with
                        | Ok (root, proof_bytes) -> (
                            (* A sharded server answers with a two-layer
                               proof and the composite as [root]; the
                               leading payload byte says which arrived. *)
                            let print_claims claims =
                              List.iter
                                (fun (k, v) ->
                                  Printf.printf "%s\t%s\tverified\n" k
                                    (match v with
                                    | Some v -> v
                                    | None -> "(absent)"))
                                claims
                            in
                            let refused () =
                              Printf.eprintf "proof REFUSED against root %s\n"
                                (Hash.short root);
                              1
                            in
                            let verifier = make index (Store.create ()) in
                            if Shard_proof.is_encoded proof_bytes then
                              match Shard_proof.decode proof_bytes with
                              | Error (`Malformed d | `Tampered d) ->
                                  Printf.eprintf "proof undecodable: %s\n" d;
                                  1
                              | Ok sp ->
                                  if
                                    Shard_proof.verify ~verifier
                                      ~composite:root sp
                                  then begin
                                    print_claims (Shard_proof.claims sp);
                                    0
                                  end
                                  else refused ()
                            else
                              match Siri_core.Multiproof.decode proof_bytes with
                              | Error (`Malformed d | `Tampered d) ->
                                  Printf.eprintf "proof undecodable: %s\n" d;
                                  1
                              | Ok proof ->
                                  if Generic.verify_many verifier ~root proof
                                  then begin
                                    print_claims
                                      proof.Siri_core.Multiproof.claims;
                                    0
                                  end
                                  else refused ())
                        | Error e -> fail "prove" e)
                    | None -> (
                        match Client.ping ?deadline_ms c with
                        | Ok () ->
                            print_endline "pong";
                            0
                        | Error e -> fail "ping" e))
            in
            Client.close c;
            rc)
  in
  Cmd.v
    (Cmd.info "connect"
       ~doc:
         "Talk to a running $(b,siri_serve): ping (default), $(b,--get), \
          $(b,--prove) (verified client-side), $(b,--put KEY=VALUE) \
          (idempotent commit), $(b,--scan) (streamed ordered read), \
          $(b,--head) or $(b,--stats).")
    Term.(
      const run $ index_arg $ unix_path $ tcp_port $ branch $ deadline_ms
      $ get_key $ prove_key $ puts $ do_head $ do_stats $ do_scan $ scan_lo
      $ scan_hi $ scan_limit)

let gen_cmd =
  let count =
    Arg.(value & opt int 1000 & info [ "count"; "n" ] ~docv:"N" ~doc:"Records to generate.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED") in
  let run count seed =
    let y = Siri_workload.Ycsb.create ~seed ~n:count () in
    List.iter
      (fun (k, v) -> Printf.printf "%s\t%s\n" k v)
      (Siri_workload.Ycsb.dataset y);
    0
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a YCSB-like dataset as TSV on stdout.")
    Term.(const run $ count $ seed)

let () =
  let doc = "inspect and compare indexes for immutable data (MPT, MBT, POS-Tree)" in
  let info = Cmd.info "siri_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval' (Cmd.group info
       [ stats_cmd; get_cmd; prove_cmd; verify_proof_cmd; range_cmd; scan_cmd;
         reshard_cmd; diff_cmd; merge_cmd;
         properties_cmd; snapshot_cmd; scrub_cmd; pack_cmd; compact_cmd;
         recover_cmd; checkpoint_cmd; connect_cmd; gen_cmd ]))
