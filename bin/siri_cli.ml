(* siri_cli — inspect SIRI indexes from the command line.

   Commands: gen, stats, get, range, scan, prove, verify-proof, diff,
   merge, properties, snapshot, scrub, pack, compact, recover, checkpoint,
   reshard and connect (one action per call).  Data files are TSV, one
   "key<TAB>value" record per line; a line without a TAB exits 2 as
   FILE:N, before any directory is opened or created.

     siri_cli gen --count 1000 > data.tsv
     siri_cli stats                 # telemetry over a sample workload
     siri_cli get --index mpt data.tsv some-key
     siri_cli range --index pos data.tsv --lo a --hi m   # LO <= key <= HI
     siri_cli scan --index pos data.tsv --lo a --hi m    # LO <= key < HI
     siri_cli merge --index pos --policy right a.tsv b.tsv *)

open Cmdliner
open Siri_core
module Store = Siri_store.Store
module Hash = Siri_crypto.Hash
module Telemetry = Siri_telemetry.Telemetry
module Table = Siri_benchkit.Table
module Ycsb = Siri_workload.Ycsb
module Pool = Siri_parallel.Pool
module Partition = Siri_shard.Partition
module Views = Siri_shard.Views
module Dir = Siri_shard.Dir
module Wal = Siri_wal.Wal
module Durable = Siri_wal.Durable
module Pack = Siri_pack.Pack

(* --- tsv io ------------------------------------------------------------------ *)

(* A malformed TSV line, as "FILE:N: why"; caught once, at the top level. *)
exception Bad_tsv of string

let read_tsv path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.mapi (fun i line ->
         match String.index_opt line '\t' with
         | Some t ->
             let len = String.length line in
             [ (String.sub line 0 t, String.sub line (t + 1) (len - t - 1)) ]
         | None when line = "" -> []
         | None ->
             let why = Printf.sprintf "%s:%d: missing TAB separator" path (i + 1) in
             raise (Bad_tsv why))
  |> List.concat

(* The one TSV index builder: [entries] inserted into an empty [kind]
   index over [store] (a fresh one by default). *)
let build ?(store = Store.create ()) kind entries =
  Generic.of_entries (Kind.make kind store) entries

let plural n = if n = 1 then "" else "s"

(* Print records as TSV on stdout and their count on stderr. *)
let print_records
    ?(summary = fun n -> Printf.sprintf "%d record%s in range" n (plural n))
    records =
  let n =
    Seq.fold_left
      (fun n (k, v) ->
        Printf.printf "%s\t%s\n" k v;
        n + 1)
      0 records
  in
  Printf.eprintf "%s\n" (summary n)

let pos_arg ?(ty = Arg.string) idx docv =
  Arg.(required & pos idx (some ty) None & info [] ~docv)

let file_arg = pos_arg ~ty:Arg.file

(* --- sharded keyspace plumbing --------------------------------------------- *)

let shards_arg =
  Arg.(
    value & opt (some int) None
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

let spec_of partition = Option.map (fun n -> Partition.make partition ~shards:n)

(* An in-memory read view of a TSV dataset: one index, or with a spec one
   per shard, each with its own store holding exactly the records the
   spec routes to it. *)
let tsv_view kind spec entries =
  match spec with
  | None -> Views.flat (build kind entries)
  | Some spec ->
      let buckets = Array.make spec.Partition.shards [] in
      List.iter
        (fun ((k, _) as e) ->
          let i = Partition.shard_of_key spec k in
          buckets.(i) <- e :: buckets.(i))
        entries;
      Views.sharded spec
        (Array.map (fun part -> build kind (List.rev part)) buckets)

(* [verifier]: an empty instance carries the per-kind verification logic
   (and, for MBT, the tree geometry); verification never touches its
   store. *)
let verify_proof kind ~root proof =
  Views.verify_proof ~verifier:(Kind.make kind (Store.create ())) ~root proof

let branch_arg =
  Arg.(
    value & opt string "master"
    & info [ "branch" ] ~docv:"BRANCH" ~doc:"Branch to operate on.")

(* Key bounds and a record cap: one definition each for range, scan and
   connect; only the docs differ ([--hi] is inclusive for range). *)
let lo_arg =
  Arg.(value & opt (some string) None
       & info [ "lo" ] ~docv:"LO" ~doc:"Lower bound (inclusive).")

let hi_arg ~doc =
  Arg.(value & opt (some string) None & info [ "hi" ] ~docv:"HI" ~doc)

let limit_arg ~doc = Arg.(value & opt int 0 & info [ "limit" ] ~docv:"N" ~doc)

(* Open a durable directory — flat or sharded, as it says on disk — run
   [f] on it and close it; an unopenable directory exits 2.  [spec] and
   [backend] only shape a directory being created. *)
let with_dir ?backend ?spec ~cmd kind dir f =
  match
    Dir.open_ ?backend ?spec ~dir
      ~empty_index:(fun () -> Kind.make kind (Store.create ()))
      ()
  with
  | Error e ->
      Format.eprintf "%s: %a@." cmd Wal.pp_error e;
      2
  | Ok d -> Fun.protect ~finally:(fun () -> Dir.close d) (fun () -> f d)

(* Open a pack directory (creating it if absent), run [f] on it and the
   open report, and close it; a tampered pack exits 2. *)
let with_pack ~cmd dir f =
  match Pack.open_ dir with
  | Error (`Tampered msg) ->
      Printf.eprintf "%s: %s\n" cmd msg;
      2
  | Ok (p, r) -> Fun.protect ~finally:(fun () -> Pack.close p) (fun () -> f p r)

let check_branch ~cmd d branch f =
  if List.mem branch (Dir.branches d) then f ()
  else begin
    Printf.eprintf "%s: unknown branch %s\n" cmd branch;
    2
  end

(* Per-shard size/key-count balance of a sharded view — the figures that
   decide when an online reshard is worth it. *)
let print_shards view =
  let parts = Views.parts view in
  let keys = Array.map (fun (v : Generic.t) -> v.Generic.cardinal ()) parts in
  let total = Array.fold_left ( + ) 0 keys in
  Array.iteri
    (fun i v ->
      Printf.printf "shard %-4d : %6d keys (%4.1f%%)  %6d nodes  %9s  root %s\n"
        i keys.(i)
        (if total = 0 then 0.
         else 100. *. float_of_int keys.(i) /. float_of_int total)
        (Generic.node_count v)
        (Table.fmt_bytes (Generic.total_bytes v))
        (Hash.short v.Generic.root))
    parts;
  Printf.printf "records    : %d\n" total;
  Printf.printf "composite  : %s\n" (Hash.to_hex (Views.root view))

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
  let inst =
    Generic.load_sorted (Kind.make ?pool kind store) (Ycsb.dataset y)
  in
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

let sample_kinds = Kind.[ Mpt; Mbt; Pos; Mvbt ]

let stats_workload ?pool ?cache_bytes ~records ~ops ~json () =
  let results =
    List.map
      (fun kind ->
        let inst, sink = run_sample ?pool ?cache_bytes kind ~records ~ops in
        (inst.Generic.name, inst, sink))
      sample_kinds
  in
  let domains = match pool with Some p -> Pool.domains p | None -> 1 in
  Table.print
    ~title:
      (Printf.sprintf
         "Telemetry counters — YCSB sample workload (%d records, %d ops, %d \
          domain%s)"
         records ops domains (plural domains))
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
  let run ~pool kind path =
    let store = Store.create () in
    let inst =
      Generic.load_sorted (Kind.make ~pool kind store) (read_tsv path)
    in
    let st = Store.stats store in
    let pages = Generic.page_set inst in
    Printf.printf "index      : %s\n" inst.Generic.name;
    Printf.printf "domains    : %d\n" (Pool.domains pool);
    Printf.printf "records    : %d\n" (inst.Generic.cardinal ());
    Printf.printf "root       : %s\n" (Hash.to_hex inst.Generic.root);
    Printf.printf "nodes      : %d\n" (Hash.Set.cardinal pages);
    Printf.printf "bytes      : %s\n"
      (Table.fmt_bytes (Store.bytes_of_set store pages));
    Printf.printf "store puts : %d (%d unique)\n" st.Store.puts st.Store.unique_nodes;
    let root = inst.Generic.root in
    let module Pos = Siri_pos.Pos_tree in
    let module Mvbt = Siri_mvbt.Mvbt in
    let pos cfg = Pos.stats (Pos.of_root store cfg root) in
    (match kind with
    | Kind.Pos -> Some (pos (Pos.config ()))
    | Prolly -> Some (pos Siri_prolly.Prolly.default_config)
    | Mvbt -> Some (Mvbt.stats (Mvbt.of_root store (Mvbt.config ()) root))
    | Mpt | Mbt -> None)
    |> Option.iter (Format.printf "%a" Tree_stats.pp);
    0
  in
  let file_opt =
    Arg.(
      value & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "TSV dataset to load, or a sharded durable directory.  When \
             omitted, a telemetry-instrumented YCSB sample workload is run \
             over all four structures instead.")
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
      value & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:
            "Write the per-structure telemetry as newline-delimited JSON to \
             $(docv) (sample-workload mode only).")
  in
  let domains =
    Arg.(
      value & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Domains for the parallel commit pipeline (default: the host's \
             recommended domain count, capped at 8; 1 = sequential).  The \
             root hashes are identical for any value.")
  in
  let cache =
    Arg.(
      value & opt (some int) None
      & info [ "cache" ] ~docv:"BYTES"
          ~doc:
            "Decoded-node cache budget in bytes for the sample workload \
             (overrides $(b,SIRI_NODE_CACHE); 0 disables).  Default: the \
             environment variable, else disabled.")
  in
  let run_dir kind branch dir =
    with_dir ~cmd:"stats" kind dir @@ fun d ->
    match Dir.spec d with
    | None ->
        Printf.eprintf
          "stats: %s is a flat durable directory; stats DIR reports the \
           per-shard balance of a sharded one\n"
          dir;
        2
    | Some _ ->
        check_branch ~cmd:"stats" d branch @@ fun () ->
        Printf.printf "layout     : %s\n" (Dir.describe d);
        Printf.printf "branch     : %s (seq %d)\n" branch
          (Dir.head d ~branch).Dir.version;
        print_shards (Dir.view d ~branch);
        0
  in
  let dispatch kind branch shards partition path records ops json domains
      cache =
    match (spec_of partition shards, path) with
    | _, Some path when Sys.is_directory path -> run_dir kind branch path
    | Some spec, Some path ->
        Printf.printf "partition  : %s\n" (Partition.to_string spec);
        print_shards (tsv_view kind (Some spec) (read_tsv path));
        0
    | Some _, None ->
        prerr_endline "stats: --shards needs a FILE dataset";
        2
    | None, _ ->
        let pool = Pool.create ?domains () in
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
      const dispatch $ Kind.arg $ branch_arg $ shards_arg $ partition_arg
      $ file_opt $ records $ ops $ json $ domains $ cache)

let get_cmd =
  let run kind path key =
    match (build kind (read_tsv path)).Generic.lookup key with
    | Some v ->
        print_endline v;
        0
    | None ->
        prerr_endline "key not found";
        1
  in
  Cmd.v (Cmd.info "get" ~doc:"Look up one key.")
    Term.(const run $ Kind.arg $ file_arg 0 "FILE" $ pos_arg 1 "KEY")

let prove_cmd =
  let keys_arg =
    Arg.(non_empty & pos_right 0 string [] & info [] ~docv:"KEY")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the encoded multiproof (Frame-wrapped wire format) to $(docv).")
  in
  let write_out encoded file =
    Out_channel.with_open_bin file (fun oc -> output_string oc encoded);
    Printf.eprintf "wrote %d bytes to %s\n" (String.length encoded) file
  in
  let run kind shards partition path keys out =
    let view = tsv_view kind (spec_of partition shards) (read_tsv path) in
    let encoded = Views.prove view keys in
    let root = Views.root view in
    (* Verify what is written: the encoded blob, decoded again. *)
    let ok =
      match Views.decode_proof encoded with
      | Error _ -> false
      | Ok proof ->
          List.iter
            (fun (k, claim) ->
              Printf.printf "%-24s : %s\n" k
                (match claim with
                | Some v -> "present, value " ^ v
                | None -> "absent"))
            (Views.proof_claims proof);
          verify_proof kind ~root proof
    in
    Printf.printf "proof      : %d bytes encoded\n" (String.length encoded);
    Printf.printf "root       : %s\n" (Hash.to_hex root);
    Printf.printf "verified   : %b\n" ok;
    Option.iter (write_out encoded) out;
    if ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "prove"
       ~doc:
         "Produce and verify a batched Merkle multiproof (membership and \
          absence) for one or more KEYs.  With $(b,--shards) the dataset is \
          partitioned and a two-layer sharded proof (shard multiproofs + \
          top shard-root vector) is produced and verified against the \
          composite root.")
    Term.(
      const run $ Kind.arg $ shards_arg $ partition_arg $ file_arg 0 "FILE"
      $ keys_arg $ out_arg)

let verify_proof_cmd =
  let root_arg =
    Arg.(
      value & opt (some string) None
      & info [ "root" ] ~docv:"HEX"
          ~doc:"Trusted 64-char hex root digest to verify against.")
  in
  let data_arg =
    Arg.(
      value & opt (some file) None
      & info [ "data" ] ~docv:"FILE"
          ~doc:
            "TSV dataset to rebuild the index from; its root becomes the \
             trusted digest.  Exactly one of $(b,--root) and $(b,--data) is \
             required.")
  in
  let run kind proof_file root_hex data =
    let encoded = In_channel.with_open_bin proof_file In_channel.input_all in
    match Views.decode_proof encoded with
    | Error (`Malformed why) ->
        Printf.eprintf "malformed proof: %s\n" why;
        2
    | Error (`Tampered why) ->
        Printf.eprintf "tampered proof: %s\n" why;
        2
    | Ok proof -> (
        (* --data is partitioned with the proof's own spec: the spec is
           bound into the composite digest, so a proof lying about it
           cannot verify anyway. *)
        let trusted =
          match (root_hex, data) with
          | Some hex, None -> (
              match Hash.of_hex hex with
              | root -> Some root
              | exception Invalid_argument _ ->
                  prerr_endline "malformed --root (need 64 hex chars)";
                  None)
          | None, Some path ->
              Some
                (Views.root
                   (tsv_view kind (Views.proof_spec proof) (read_tsv path)))
          | _ ->
              prerr_endline "exactly one of --root and --data is required";
              None
        in
        match trusted with
        | None -> 2
        | Some root ->
            let claims = Views.proof_claims proof in
            Option.iter
              (fun spec ->
                Printf.printf "sharded  : %s\n" (Partition.to_string spec))
              (Views.proof_spec proof);
            Printf.printf "claims   : %d (%d absent)\n" (List.length claims)
              (List.length (List.filter (fun (_, v) -> v = None) claims));
            Printf.printf "root     : %s\n" (Hash.to_hex root);
            let ok = verify_proof kind ~root proof in
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
    Term.(const run $ Kind.arg $ file_arg 0 "PROOF" $ root_arg $ data_arg)

(* Two TSV versions built into one store, as diff and merge compare them. *)
let two_versions kind path1 path2 =
  let e1 = read_tsv path1 and e2 = read_tsv path2 in
  let store = Store.create () in
  (build ~store kind e1, build ~store kind e2)

let diff_cmd =
  let run kind path1 path2 =
    let v1, v2 = two_versions kind path1 path2 in
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
    Term.(const run $ Kind.arg $ file_arg 0 "FILE1" $ file_arg 1 "FILE2")

let policy_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("left", Kv.Prefer_left); ("right", Kv.Prefer_right);
             ("fail", Kv.Fail_on_conflict) ])
        Kv.Fail_on_conflict
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:"Conflict policy: $(b,left), $(b,right) or $(b,fail).")

let merge_cmd =
  let run kind policy path1 path2 =
    let v1, v2 = two_versions kind path1 path2 in
    match v1.Generic.merge policy v2.Generic.root with
    | Ok merged ->
        print_records
          ~summary:(Printf.sprintf "merged %d records")
          (List.to_seq (merged.Generic.to_list ()));
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
    Term.(
      const run $ Kind.arg $ policy_arg $ file_arg 0 "FILE1" $ file_arg 1 "FILE2")

let properties_cmd =
  let run kind path =
    let entries = read_tsv path in
    let store = Store.create () in
    let build = build ~store kind in
    let si =
      Properties.structurally_invariant ~build ~entries ~permutations:3 ~seed:7
    in
    let ri =
      match entries with
      | [] -> true
      | extra :: entries -> Properties.recursively_identical ~build ~entries ~extra
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
    Term.(const run $ Kind.arg $ file_arg 0 "FILE")

let range_cmd =
  let run kind path lo hi =
    print_records (List.to_seq ((build kind (read_tsv path)).Generic.range ~lo ~hi));
    0
  in
  Cmd.v
    (Cmd.info "range"
       ~doc:"List records with LO <= key <= HI (either bound may be omitted).")
    Term.(
      const run $ Kind.arg $ file_arg 0 "FILE" $ lo_arg
      $ hi_arg ~doc:"Upper bound (inclusive).")

let scan_cmd =
  let count_only =
    Arg.(
      value & flag
      & info [ "count" ]
          ~doc:"Print only the number of records in range (stops early \
                under $(b,--limit)).")
  in
  let run kind branch lo hi limit count_only target =
    let scan view =
      let records = Views.scan ?lo ?hi view in
      let records = if limit > 0 then Seq.take limit records else records in
      if count_only then Printf.printf "%d\n" (Seq.length records)
      else print_records records;
      0
    in
    match
      if Sys.is_directory target then
        (* durable directory, flat or sharded: scan the branch head *)
        with_dir ~cmd:"scan" kind target @@ fun d ->
        check_branch ~cmd:"scan" d branch @@ fun () -> scan (Dir.view d ~branch)
      else
        (* TSV dataset: build the index in memory, then stream *)
        scan (tsv_view kind None (read_tsv target))
    with
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
          dataset or a durable directory, flat or sharded (read from the \
          directory) — sharded range-partitioned scans touch only the \
          shards the bounds route to.")
    Term.(
      const run $ Kind.arg $ branch_arg $ lo_arg
      $ hi_arg ~doc:"Upper bound (exclusive)."
      $ limit_arg ~doc:"Stop after $(docv) records (0 = unbounded)."
      $ count_only $ file_arg 0 "TARGET")

let reshard_cmd =
  let shards_req =
    Arg.(
      required & opt (some int) None
      & info [ "shards" ] ~docv:"M" ~doc:"New shard count.")
  in
  let run kind m dir =
    match
      Dir.open_ ~dir
        ~empty_index:(fun () -> Kind.make kind (Store.create ()))
        ()
    with
    | Error e ->
        Format.eprintf "reshard: %a@." Wal.pp_error e;
        2
    | Ok d -> (
        Printf.printf "from       : %s\n" (Dir.describe d);
        let refuse msg =
          Printf.eprintf "reshard: %s\n" msg;
          Dir.close d;
          2
        in
        match Dir.reshard d ~shards:m with
        | exception Invalid_argument msg -> refuse msg
        | Error e -> refuse (Format.asprintf "%a" Wal.pp_error e)
        | Ok d ->
            Printf.printf "to         : %s\n" (Dir.describe d);
            print_shards (Dir.view d ~branch:"master");
            List.iter
              (fun b ->
                let h = Dir.head d ~branch:b in
                Printf.printf "branch     : %-12s composite %s (seq %d)\n" b
                  (Hash.short h.Dir.root) h.Dir.version)
              (Dir.branches d);
            Dir.close d;
            0)
  in
  Cmd.v
    (Cmd.info "reshard"
       ~doc:
         "Online reshard a sharded durable directory to $(b,--shards) M: \
          stream every live entry out of the old shards in key order, \
          bulk-load M fresh shards in a staging generation, and atomically \
          switch the SHARDS manifest — a crash at any point leaves the old \
          or the new layout, never a mix.  A flat directory is refused \
          (exit 2) and left as it is.")
    Term.(const run $ Kind.arg $ shards_req $ pos_arg 0 "DIR")

let snapshot_cmd =
  let run kind path out =
    let store = Store.create () in
    let inst = build ~store kind (read_tsv path) in
    let refuse reason =
      Printf.eprintf "snapshot: %s: %s\n" out reason;
      2
    in
    match Store.save store out with
    | exception Unix.Unix_error (e, _, _) -> refuse (Unix.error_message e)
    | exception Sys_error msg -> refuse msg
    | () ->
        Printf.printf "root  : %s\n" (Hash.to_hex inst.Generic.root);
        Printf.printf "nodes : %d\n" (Store.stats store).Store.unique_nodes;
        Printf.printf "saved : %s\n" out;
        0
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:"Build an index from a TSV file and save the node store to SNAPSHOT.")
    Term.(const run $ Kind.arg $ file_arg 0 "FILE" $ pos_arg 1 "SNAPSHOT")

let scrub_pack dir =
  with_pack ~cmd:"scrub" dir @@ fun p r ->
  let corrupt = Pack.scrub p in
  Printf.printf "segments   : %d\n" (List.length (Pack.segment_ids p));
  Printf.printf "records    : %d\n" (Pack.count p);
  Printf.printf "bytes      : %s\n" (Table.fmt_bytes (Pack.stored_bytes p));
  Printf.printf "clamped    : %d byte%s of torn tail\n" r.Pack.clamped_bytes
    (plural r.Pack.clamped_bytes);
  if r.Pack.index_rebuilt then print_endline "index      : rebuilt from segments";
  List.iter (fun h -> Printf.printf "corrupt    : %s\n" (Hash.to_hex h)) corrupt;
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
           (snapshot files only).")
  in
  let run strict path =
    if Sys.is_directory path then scrub_pack path
    else (
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
  Cmd.v
    (Cmd.info "scrub"
       ~doc:
         "Audit stored nodes: re-hash every payload against its digest.  \
          A TARGET file is a node-store snapshot (exit 1 on integrity \
          violations, 2 if unreadable); a TARGET directory is a pack \
          directory (exit 1 when only a torn segment tail was clamped, 2 on \
          unrecoverable damage: corrupt manifest, missing segment or \
          mid-segment checksum mismatch).")
    Term.(const run $ strict $ pos_arg 0 "TARGET")

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
  let run_sharded kind spec entries dir =
    with_dir ~backend:`Pack ~spec ~cmd:"pack" kind dir @@ fun d ->
    let ops = List.map (fun (k, v) -> Kv.Put (k, v)) entries in
    let h = Dir.commit d ~branch:"master" ~message:"pack" ops in
    (* Checkpoint so the records land in the per-shard pack segments and
       the journals truncate — the shape a served directory has. *)
    Dir.checkpoint d;
    Printf.printf "layout    : %s\n" (Dir.describe d);
    Printf.printf "composite : %s (seq %d)\n" (Hash.to_hex h.Dir.root)
      h.Dir.version;
    0
  in
  let run_flat kind entries dir =
    with_pack ~cmd:"pack" dir @@ fun p _ ->
    (match entries with
    | `Snapshot store ->
        (* Attaching moves the loaded nodes into the pack. *)
        Pack.attach p store
    | `Tsv entries ->
        (* Write-through build: every fresh node the index creates goes
           straight to the pack. *)
        let store = Store.create () in
        Pack.attach p store;
        let inst = build ~store kind entries in
        Printf.printf "root     : %s\n" (Hash.to_hex inst.Generic.root));
    pack_summary p;
    0
  in
  let run kind from_snapshot shards partition src dir =
    match (shards, from_snapshot) with
    | Some _, true ->
        prerr_endline "pack: --from-snapshot and --shards are exclusive";
        2
    | None, true -> (
        (* Read the snapshot before the pack is opened, so a bad one
           creates nothing. *)
        match Store.load_checked src with
        | Error (`Malformed msg) ->
            Printf.eprintf "pack: %s: %s\n" src msg;
            2
        | Ok store -> run_flat kind (`Snapshot store) dir)
    | Some n, false ->
        run_sharded kind (Partition.make partition ~shards:n) (read_tsv src) dir
    | None, false -> run_flat kind (`Tsv (read_tsv src)) dir
  in
  Cmd.v
    (Cmd.info "pack"
       ~doc:
         "Build a log-structured pack directory from a TSV dataset (or, \
          with $(b,--from-snapshot), migrate a saved node store into one).  \
          With $(b,--shards) the dataset is committed into a sharded \
          durable directory whose shards each use a pack backend.")
    Term.(
      const run $ Kind.arg $ from_snapshot $ shards_arg $ partition_arg
      $ file_arg 0 "SRC" $ pos_arg 1 "DIR")

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
    with_pack ~cmd:"compact" dir @@ fun p _ ->
    match List.map Hash.of_hex roots with
    | exception Invalid_argument _ ->
        Printf.eprintf "compact: malformed --root hash\n";
        2
    | [] ->
        print_endline "no roots given; nothing dropped";
        pack_summary p;
        0
    | roots -> (
        match List.find_opt (fun h -> not (Pack.mem p h)) roots with
        | Some h ->
            Printf.eprintf "compact: root %s not in pack\n" (Hash.to_hex h);
            2
        | None ->
            (* An empty store over the pack: its collector walks the
               pack's child lists and compacts it to the closure. *)
            let store = Store.create () in
            Pack.attach p store;
            let dropped = Store.gc store ~roots in
            Printf.printf "dropped  : %d record%s\n" dropped (plural dropped);
            pack_summary p;
            0)
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:
         "Compact a pack directory: rewrite the records reachable from the \
          given $(b,--root) hashes into fresh segments, atomically flip the \
          manifest, and delete the old segments.")
    Term.(const run $ roots $ pos_arg 0 "DIR")

(* --- durability: recover / checkpoint ---------------------------------------- *)

(* Shared by recover and checkpoint: open (recovering) a flat or sharded
   directory, print the report — per journal replay stats, the composite
   journal's clamp and the rolled-back unpublished records, the head per
   branch — optionally checkpoint, and exit with the established
   convention: 0 clean, 1 recovered with a torn or unpublished tail
   rolled back, 2 unrecoverable.  --shards only creates a sharded
   directory (or asserts the count: a mismatch is refused). *)
let durable_run ~checkpoint kind shards partition dir =
  let cmd = if checkpoint then "checkpoint" else "recover" in
  with_dir ?spec:(spec_of partition shards) ~cmd kind dir @@ fun d ->
  let r = Dir.recovery d in
  Printf.printf "layout     : %s\n" (Dir.describe d);
  if r.Dir.top_clamped_bytes > 0 then
    Printf.printf "top clamp  : %d byte%s of torn tail\n"
      r.Dir.top_clamped_bytes
      (plural r.Dir.top_clamped_bytes);
  if r.Dir.capped > 0 then
    Printf.printf "rolled back: %d unpublished shard record%s\n" r.Dir.capped
      (plural r.Dir.capped);
  Array.iteri
    (fun i (j : Durable.recovery) ->
      Printf.printf
        "%-10s : generation %d, replayed %d, skipped %d, clamped %d byte%s\n"
        (if Dir.spec d = None then "journal" else Printf.sprintf "shard %d" i)
        j.Durable.generation j.Durable.replayed j.Durable.skipped
        j.Durable.clamped_bytes (plural j.Durable.clamped_bytes))
    r.Dir.journals;
  List.iter
    (fun b ->
      let h = Dir.head d ~branch:b in
      Printf.printf "branch     : %-12s %s (version %d)\n" b
        (Hash.short h.Dir.id) h.Dir.version)
    (Dir.branches d);
  if checkpoint then begin
    Dir.checkpoint d;
    print_endline "checkpoint : snapshot written, journals truncated"
  end;
  if Dir.clamped d then begin
    print_endline "=> recovered (torn or unpublished tail rolled back)";
    1
  end
  else begin
    print_endline "=> clean";
    0
  end

let recover_cmd =
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Recover a durable engine directory, flat or sharded, on the \
          backend it holds: load the manifest snapshot, replay the commit \
          journal, clamp any torn tail.  Sharded directories replay every \
          shard journal capped at the last published composite and verify \
          the recomputed composite root; $(b,--shards) creates one.  \
          Exits 0 when the journal was clean, 1 when a torn or unpublished \
          tail was rolled back, 2 when the directory is unrecoverable \
          (corrupt journal, snapshot or composite mismatch).")
    Term.(
      const (durable_run ~checkpoint:false)
      $ Kind.arg $ shards_arg $ partition_arg $ pos_arg 0 "DIR")

let checkpoint_cmd =
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:
         "Recover a durable engine directory, then checkpoint it: write the \
          next-generation snapshot, atomically publish the manifest and \
          truncate the journal (all shards plus the top journal for a \
          sharded directory).  Same exit codes as $(b,recover).")
    Term.(
      const (durable_run ~checkpoint:true)
      $ Kind.arg $ shards_arg $ partition_arg $ pos_arg 0 "DIR")

(* --- connect: client mode against a running siri_serve ----------------------- *)

module Server = Siri_server.Server
module Client = Siri_server.Client

(* One request per call: the flags name at most one action. *)
type action =
  | Ping
  | Stats
  | Head
  | Scan of { lo : string option; hi : string option; limit : int }
  | Put of Kv.op list
  | Get of string
  | Prove of string

(* Send [action] on [c] and print the reply: 0 on success, 1 when the
   server refuses, the key is absent or the proof does not verify. *)
let act kind c ~branch ?deadline_ms action =
  let reply what r ok =
    match r with
    | Ok x -> ok x
    | Error e ->
        Printf.eprintf "%s: %s\n" what (Client.error_to_string e);
        1
  in
  match action with
  | Ping ->
      reply "ping" (Client.ping ?deadline_ms c) @@ fun () ->
      print_endline "pong";
      0
  | Stats ->
      reply "stats" (Client.stats ?deadline_ms c) @@ fun json ->
      print_endline json;
      0
  | Head ->
      reply "head" (Client.head ?deadline_ms c ~branch) @@ fun (id, root, version) ->
      Printf.printf "head    : %s (version %d)\nroot    : %s\n" (Hash.short id)
        version (Hash.short root);
      0
  | Scan { lo; hi; limit } ->
      reply "scan" (Client.scan ?deadline_ms ?lo ?hi ~limit c ~branch)
      @@ fun entries ->
      print_records (List.to_seq entries);
      0
  | Put ops ->
      reply "commit" (Client.commit ?deadline_ms c ~branch ~message:"cli" ops)
      @@ fun (id, version, group_size) ->
      Printf.printf "commit  : %s (version %d, group of %d)\n" (Hash.short id)
        version group_size;
      0
  | Get key -> (
      reply "get" (Client.get ?deadline_ms c ~branch key) @@ function
      | Some v ->
          print_endline v;
          0
      | None ->
          Printf.eprintf "%s: not found\n" key;
          1)
  | Prove key -> (
      reply "prove" (Client.prove_many ?deadline_ms c ~branch [ key ])
      @@ fun (root, proof_bytes) ->
      (* A sharded server answers with a two-layer proof and the
         composite as [root]. *)
      match Views.decode_proof proof_bytes with
      | Error (`Malformed d | `Tampered d) ->
          Printf.eprintf "proof undecodable: %s\n" d;
          1
      | Ok proof when verify_proof kind ~root proof ->
          List.iter
            (fun (k, v) ->
              Printf.printf "%s\t%s\tverified\n" k
                (Option.value v ~default:"(absent)"))
            (Views.proof_claims proof);
          0
      | Ok _ ->
          Printf.eprintf "proof REFUSED against root %s\n" (Hash.short root);
          1)

let connect_cmd =
  let unix_path =
    Arg.(value & opt (some string) None
         & info [ "unix" ] ~docv:"PATH" ~doc:"Server Unix-domain socket.")
  in
  let tcp_port =
    Arg.(value & opt (some int) None
         & info [ "tcp" ] ~docv:"PORT" ~doc:"Server TCP loopback port.")
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
      value & opt (some string) None
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
  let do_stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print the server's telemetry sink as JSON — the \
                $(b,server.req.*), $(b,server.commit.*) counters and \
                latency histograms land here.")
  in
  let split kv =
    Option.map
      (fun i ->
        Kv.Put (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1)))
      (String.index_opt kv '=')
  in
  (* The flags as one action, or why they are refused. *)
  let action get prove ops head stats scan lo hi limit =
    let named =
      List.filter_map Fun.id
        [ Option.map (fun k -> Get k) get;
          Option.map (fun k -> Prove k) prove;
          (if ops = [] then None else Some (Put ops));
          (if head then Some Head else None);
          (if stats then Some Stats else None);
          (if scan then Some (Scan { lo; hi; limit }) else None) ]
    in
    match named with
    | _ :: _ :: _ ->
        Error "at most one of --get, --prove, --put, --head, --stats and --scan"
    | [ (Scan _ as a) ] -> Ok a
    | _ when lo <> None || hi <> None || limit <> 0 ->
        Error "--lo, --hi and --limit need --scan"
    | [ a ] -> Ok a
    | [] -> Ok Ping
  in
  let run kind unix_path tcp_port branch deadline_ms get prove puts head stats
      scan lo hi limit =
    let addr =
      match (unix_path, tcp_port) with
      | Some p, _ -> Some (`Unix p)
      | None, Some p -> Some (`Tcp p)
      | None, None -> None
    in
    let malformed = List.filter (fun kv -> split kv = None) puts in
    let ops = List.filter_map split puts in
    match (addr, malformed, action get prove ops head stats scan lo hi limit) with
    | None, _, _ ->
        prerr_endline "connect: need --unix PATH or --tcp PORT";
        2
    | Some _, _ :: _, _ ->
        List.iter
          (Printf.eprintf "connect: malformed --put %S (want KEY=VALUE)\n")
          malformed;
        2
    | Some _, [], Error why ->
        Printf.eprintf "connect: %s\n" why;
        2
    | Some addr, [], Ok action -> (
        match Client.connect ~addr () with
        | Error e ->
            Printf.eprintf "connect: %s\n" (Client.error_to_string e);
            1
        | Ok c ->
            let deadline_ms = if deadline_ms <= 0 then None else Some deadline_ms in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () -> act kind c ~branch ?deadline_ms action))
  in
  Cmd.v
    (Cmd.info "connect"
       ~doc:
         "Talk to a running $(b,siri_serve), one action per call: ping \
          (default), $(b,--get), $(b,--prove) (verified client-side), \
          $(b,--put KEY=VALUE) (repeatable; one idempotent commit), \
          $(b,--scan) (streamed ordered read), $(b,--head) or \
          $(b,--stats).  Two actions, or $(b,--lo)/$(b,--hi)/$(b,--limit) \
          without $(b,--scan), are refused with exit 2 before dialing.")
    Term.(
      const run $ Kind.arg $ unix_path $ tcp_port $ branch_arg $ deadline_ms
      $ get_key $ prove_key $ puts $ do_head $ do_stats $ do_scan $ lo_arg
      $ hi_arg ~doc:"Upper bound (exclusive)."
      $ limit_arg
          ~doc:"Cap the scan at $(docv) records server-side (0 = unbounded).")

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

(* [Bad_tsv] is the one exception caught here (exit 2); any other keeps
   cmdliner's internal-error report and exit code. *)
let () =
  let doc = "inspect and compare indexes for immutable data (MPT, MBT, POS-Tree)" in
  let info = Cmd.info "siri_cli" ~version:"1.0.0" ~doc in
  let main =
    Cmd.group info
      [ stats_cmd; get_cmd; prove_cmd; verify_proof_cmd; range_cmd; scan_cmd;
        reshard_cmd; diff_cmd; merge_cmd;
        properties_cmd; snapshot_cmd; scrub_cmd; pack_cmd; compact_cmd;
        recover_cmd; checkpoint_cmd; connect_cmd; gen_cmd ]
  in
  exit
    (match Cmd.eval' ~catch:false main with
    | rc -> rc
    | exception Bad_tsv why ->
        prerr_endline why;
        2
    | exception e ->
        Format.eprintf "siri_cli: @[internal error, uncaught exception:@\n%s@]@."
          (Printexc.to_string e);
        Cmd.Exit.internal_error)
