(* POS-Tree: conformance battery, SIRI properties, chunking behaviour, node
   reuse on incremental updates, and the Section 5.5 ablations. *)

open Siri_core
module Store = Siri_store.Store
module Pos = Siri_pos.Pos_tree
module Hash = Siri_crypto.Hash

let cfg = Pos.config ~leaf_target:256 ~internal_bits:3 ()
let mk () = Pos.generic (Pos.empty (Store.create ()) cfg)

(* --- SIRI properties ----------------------------------------------------------- *)

let shared_store_build () =
  let store = Store.create () in
  fun entries -> Pos.generic (Pos.of_entries store cfg entries)

let some_entries =
  List.init 200 (fun i -> (Printf.sprintf "entry-%05d" (i * 7), string_of_int i))

let test_structurally_invariant () =
  Alcotest.(check bool) "Definition 3.1(1)" true
    (Properties.structurally_invariant ~build:(shared_store_build ())
       ~entries:some_entries ~permutations:5 ~seed:3)

let test_recursively_identical () =
  Alcotest.(check bool) "Definition 3.1(2)" true
    (Properties.recursively_identical ~build:(shared_store_build ())
       ~entries:some_entries ~extra:("entry-99999", "x"))

let test_universally_reusable () =
  Alcotest.(check bool) "Definition 3.1(3)" true
    (Properties.universally_reusable ~build:(shared_store_build ())
       ~entries:some_entries
       ~more:(List.init 50 (fun i -> (Printf.sprintf "zz-%03d" i, Printf.sprintf "zv-%d" i))))

(* --- chunking & shape ------------------------------------------------------------ *)

let big_entries n =
  (* Variable-length values: with fixed-size records a byte-greedy forced
     split degenerates to an entry-count rule and would mask the non-SI
     ablation's order dependence. *)
  let rng = Rng.create 31 in
  List.init n (fun i ->
      (Printf.sprintf "key%06d" i, Rng.string_alnum rng (Rng.int_in rng 16 64)))

let test_leaf_size_distribution () =
  let store = Store.create () in
  let t = Pos.of_entries store cfg (big_entries 4000) in
  let sizes = Pos.leaf_sizes t in
  let mean =
    Float.of_int (List.fold_left ( + ) 0 sizes) /. Float.of_int (List.length sizes)
  in
  Alcotest.(check bool)
    (Printf.sprintf "mean leaf %.0f ~ 256" mean)
    true
    (mean > 85.0 && mean < 1024.0)

let test_bigger_pattern_bigger_nodes () =
  let store = Store.create () in
  let entries = big_entries 3000 in
  let mean target =
    let t = Pos.of_entries store (Pos.config ~leaf_target:target ()) entries in
    let sizes = Pos.leaf_sizes t in
    Float.of_int (List.fold_left ( + ) 0 sizes) /. Float.of_int (List.length sizes)
  in
  Alcotest.(check bool) "512 < 2048 targets" true (mean 512 < mean 2048)

let test_height_grows_logarithmically () =
  let store = Store.create () in
  let h n = Pos.height (Pos.of_entries store cfg (big_entries n)) in
  Alcotest.(check bool) "height grows" true (h 4000 > h 40);
  Alcotest.(check bool) "but slowly" true (h 4000 <= h 40 + 6)

let test_batch_one_pass_reuse () =
  (* A single-record update on a 4000-record tree must create only a handful
     of nodes — the streaming rebuilder skips clean subtrees. *)
  let store = Store.create () in
  let t = Pos.of_entries store cfg (big_entries 4000) in
  let before = (Store.stats store).Store.puts in
  Store.reset_counters store;
  ignore before;
  let _t2 = Pos.insert t "key002000" "NEW" in
  let created = (Store.stats store).Store.puts in
  Alcotest.(check bool)
    (Printf.sprintf "only %d puts for point update" created)
    true (created <= 40)

let test_incremental_equals_bulk () =
  (* Applying updates incrementally equals rebuilding from the final record
     set — the strongest form of structural invariance. *)
  let store = Store.create () in
  let base = big_entries 1000 in
  let t = Pos.of_entries store cfg base in
  let ops =
    [ Kv.Put ("key000500", "updated");
      Kv.Del "key000001";
      Kv.Put ("newkey-aaa", "fresh");
      Kv.Del "key000999" ]
  in
  let incr = Pos.batch t ops in
  let bulk = Pos.of_entries store cfg (Kv.apply_sorted base (Kv.sort_ops ops)) in
  Alcotest.(check bool) "same root" true (Hash.equal (Pos.root incr) (Pos.root bulk))

(* Qcheck rounds for the differential below; [make pos] raises it. *)
let pos_rounds () =
  match Option.bind (Sys.getenv_opt "SIRI_POS_ROUNDS") int_of_string_opt with
  | Some n -> max 1 n
  | None -> 30

(* Configs the differential runs under.  Each exercises a different part
   of the rebuilder's skip: the default leaf rule; Prolly's rolling
   internal rule with small targets, so internal nodes are short and their
   first and last refs matter; size caps small enough that most cuts are
   forced, at the leaves and at the rolling internal levels; and
   [min_size > 0], under which nothing may be skipped. *)
let differential_configs =
  [ ("default", Pos.config ());
    ("prolly small", Pos.config_prolly ~leaf_target:128 ~internal_target:128 ());
    ( "tiny leaf max_size",
      { cfg with Pos.leaf = Siri_chunk.Chunker.config ~pattern_bits:7 ~max_size:64 () } );
    ( "tiny rolling max_size",
      { (Pos.config_prolly ~leaf_target:128 ~internal_target:128 ()) with
        Pos.internal =
          Pos.By_rolling (Siri_chunk.Chunker.config ~pattern_bits:7 ~max_size:120 ()) } );
    ( "min_size > 0",
      { cfg with Pos.leaf = Siri_chunk.Chunker.config ~pattern_bits:7 ~min_size:48 () } ) ]

(* The last record of every leaf a full build of [entries] cuts under
   [leaf] (replaying the leaf rule on the records' wire bytes): editing
   or deleting one removes a boundary, so the rebuild must resync into the
   next leaf. *)
let leaf_last_keys leaf entries =
  let ch = Siri_chunk.Chunker.create leaf in
  List.filter_map
    (fun (k, v) ->
      let w = Siri_codec.Wire.Writer.create () in
      Siri_codec.Wire.Writer.str w k;
      Siri_codec.Wire.Writer.str w v;
      if Siri_chunk.Chunker.feed ch (Siri_codec.Wire.Writer.contents w) then Some k
      else None)
    entries

let qcheck_incremental_invariance =
  QCheck.Test.make ~name:"incremental = bulk on random batches"
    ~count:(pos_rounds ())
    QCheck.(
      pair (int_bound 1000)
        (list_of_size Gen.(1 -- 8)
           (list_of_size Gen.(1 -- 30)
              (pair (int_bound 1200) (option (string_of_size Gen.(0 -- 20)))))))
    (fun (seed, chain) ->
      let base = big_entries 600 in
      List.for_all
        (fun (_, config) ->
          let store = Store.create () in
          let rng = Rng.create seed in
          let step (t, records) raw_ops =
            let random =
              List.map
                (fun (i, v) ->
                  let k = Printf.sprintf "key%06d" i in
                  match v with Some v -> Kv.Put (k, v) | None -> Kv.Del k)
                raw_ops
            in
            (* A few ops aimed at the current leaves' last records. *)
            let aimed =
              List.filter_map
                (fun k ->
                  match Rng.int rng 6 with
                  | 0 -> Some (Kv.Del k)
                  | 1 -> Some (Kv.Put (k, Rng.string_alnum rng (Rng.int_in rng 0 40)))
                  | _ -> None)
                (leaf_last_keys config.Pos.leaf records)
            in
            let ops = Rng.shuffle rng (random @ aimed) in
            (Pos.batch t ops, Kv.apply_sorted records (Kv.sort_ops ops))
          in
          let rec go (t, records) = function
            | [] -> true
            | raw_ops :: rest ->
                let t, records = step (t, records) raw_ops in
                Hash.equal (Pos.root t) (Pos.root (Pos.of_entries store config records))
                && Hash.equal (Pos.root t) (Pos.root (Pos.of_sorted store config records))
                && go (t, records) rest
          in
          go (Pos.of_entries store config base, base) chain)
        differential_configs)

let test_skip_engages () =
  (* A one-record update re-hashes only the records and refs whose
     boundary is not already known: the touched record, each rebuilt
     node's last item, and (at rolling internal levels) its first ref and
     the new ref.  With the skip off, every item of every rebuilt node is
     fed: 5 for the POS tree here and 31 for the Prolly tree.  The
     root alone cannot show that the skip was turned off. *)
  List.iter
    (fun (name, config, bound) ->
      let store = Store.create () in
      let t = Pos.of_entries store config (big_entries 4000) in
      let sink = Siri_telemetry.Telemetry.create () in
      Store.set_sink store sink;
      ignore (Pos.insert t "key002000" "NEW");
      let fed = Siri_telemetry.Telemetry.counter sink "chunk.fed"
      and skipped = Siri_telemetry.Telemetry.counter sink "chunk.skipped" in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d items fed (<= %d), %d skipped" name fed bound skipped)
        true
        (fed >= 1 && fed <= bound && skipped > 0))
    [ ("pos", cfg, 3); ("prolly", Pos.config_prolly ~leaf_target:256 ~internal_target:256 (), 20) ]

let test_splice_engages () =
  (* A one-record update splices every untouched record of each rebuilt
     leaf from the old leaf's bytes, and every reused ref of each rebuilt
     internal node; only the touched record and the refs to new nodes are
     encoded.  Roots alone cannot show that the splice was turned off. *)
  List.iter
    (fun (name, config) ->
      let store = Store.create () in
      let t = Pos.of_entries store config (big_entries 4000) in
      let sink = Siri_telemetry.Telemetry.create () in
      Store.set_sink store sink;
      let t' = Pos.insert t "key002000" "NEW" in
      let spliced = Siri_telemetry.Telemetry.counter sink "node.spliced_bytes" in
      let fresh =
        Hash.Set.diff (Store.reachable store (Pos.root t'))
          (Store.reachable store (Pos.root t))
      in
      let view h = Split_key.parse ~salted:true (Store.get store h) in
      let range v i j = Split_key.item_stop v j - Split_key.item_start v i in
      (* Item bytes of the fresh leaves, of all fresh nodes, and of the refs
         in fresh nodes to fresh children (necessarily encoded anew). *)
      let leaf_bytes, all_bytes, new_refs =
        Hash.Set.fold
          (fun h (l, a, r) ->
            let v = view h in
            let n = Split_key.count v in
            let body = range v 0 (n - 1) in
            if Split_key.is_leaf v then (l + body, a + body, r)
            else
              let r = ref r in
              for i = 0 to n - 1 do
                if Hash.Set.mem (Split_key.child v i) fresh then r := !r + range v i i
              done;
              (l, a + body, !r))
          fresh (0, 0, 0)
      in
      let touched = Siri_codec.Wire.Writer.(str_size "key002000" + str_size "NEW") in
      Alcotest.(check bool)
        (Printf.sprintf "%s: the rebuilt leaves' %d untouched bytes are spliced" name
           (leaf_bytes - touched))
        true
        (leaf_bytes > touched && spliced > leaf_bytes - touched);
      Alcotest.(check int)
        (name ^ ": every item but the touched record and the new refs is spliced")
        (all_bytes - touched - new_refs) spliced)
    [ ("pos", cfg); ("prolly", Pos.config_prolly ~leaf_target:256 ~internal_target:256 ()) ]

(* --- ablations (Section 5.5) -------------------------------------------------------- *)

let test_non_si_is_order_dependent () =
  let store = Store.create () in
  let nsi = Pos.config_non_structurally_invariant ~leaf_target:256 () in
  let entries = big_entries 400 in
  let bulk = Pos.of_entries store nsi entries in
  (* Shuffled one-by-one inserts: middle-of-stream edits shift the forced
     split points, whose positions depend on history. *)
  let rng = Rng.create 41 in
  let one_by_one =
    List.fold_left
      (fun t (k, v) -> Pos.insert t k v)
      (Pos.empty store nsi)
      (Rng.shuffle rng entries)
  in
  Alcotest.(check (list (pair string string)))
    "same records"
    ((Pos.generic bulk).Generic.to_list ())
    ((Pos.generic one_by_one).Generic.to_list ());
  Alcotest.(check bool) "different shapes" false
    (Hash.equal (Pos.root bulk) (Pos.root one_by_one))

let test_non_si_lowers_sharing () =
  (* Two parties building the same final dataset through different histories
     share fewer nodes without SI than with it. *)
  let sharing config =
    let store = Store.create () in
    let entries = big_entries 800 in
    let a = Pos.of_entries store config entries in
    let rng = Rng.create 42 in
    let b =
      List.fold_left
        (fun t (k, v) -> Pos.insert t k v)
        (Pos.empty store config)
        (Rng.shuffle rng entries)
    in
    Dedup.node_sharing_ratio store [ Pos.root a; Pos.root b ]
  in
  let si = sharing cfg in
  let nsi = sharing (Pos.config_non_structurally_invariant ~leaf_target:256 ()) in
  Alcotest.(check bool)
    (Printf.sprintf "sharing %.2f (SI) > %.2f (non-SI)" si nsi)
    true (si > nsi)

let test_non_ri_zero_sharing () =
  let store = Store.create () in
  let nri = Pos.config_non_recursively_identical ~leaf_target:256 () in
  let t1 = Pos.of_entries store nri (big_entries 300) in
  let t2 = Pos.insert t1 "key000100" "poke" in
  let p1 = Store.reachable store (Pos.root t1) in
  let p2 = Store.reachable store (Pos.root t2) in
  Alcotest.(check int) "zero shared pages" 0
    (Hash.Set.cardinal (Hash.Set.inter p1 p2));
  Alcotest.(check (float 1e-9)) "dedup ratio zero" 0.0
    (Dedup.dedup_ratio store [ Pos.root t1; Pos.root t2 ]);
  (* Data is still correct, only sharing is destroyed. *)
  Alcotest.(check (option string)) "lookup ok" (Some "poke")
    ((Pos.generic t2).Generic.lookup "key000100")

let test_ri_enabled_high_sharing () =
  let store = Store.create () in
  let t1 = Pos.of_entries store cfg (big_entries 300) in
  let t2 = Pos.insert t1 "key000100" "poke" in
  Alcotest.(check bool) "most pages shared" true
    (Dedup.dedup_ratio store [ Pos.root t1; Pos.root t2 ] > 0.3)

(* --- prolly-mode internals ------------------------------------------------------------ *)

let test_rolling_internal_rule () =
  (* By_rolling must also be structurally invariant. *)
  let store = Store.create () in
  let pc = Pos.config_prolly ~leaf_target:256 ~internal_target:256 () in
  let entries = big_entries 500 in
  let a = Pos.of_entries store pc entries in
  let rng = Rng.create 9 in
  let b =
    List.fold_left
      (fun t (k, v) -> Pos.insert t k v)
      (Pos.empty store pc)
      (Rng.shuffle rng entries)
  in
  Alcotest.(check bool) "prolly SI" true (Hash.equal (Pos.root a) (Pos.root b))

let () =
  Alcotest.run "pos"
    [ ("conformance", Index_suite.cases "pos" mk);
      ( "siri-properties",
        [ Alcotest.test_case "structurally invariant" `Quick test_structurally_invariant;
          Alcotest.test_case "recursively identical" `Quick test_recursively_identical;
          Alcotest.test_case "universally reusable" `Quick test_universally_reusable ] );
      ( "chunking",
        [ Alcotest.test_case "leaf size distribution" `Quick test_leaf_size_distribution;
          Alcotest.test_case "pattern controls node size" `Quick test_bigger_pattern_bigger_nodes;
          Alcotest.test_case "height logarithmic" `Quick test_height_grows_logarithmically;
          Alcotest.test_case "point update reuse" `Quick test_batch_one_pass_reuse;
          Alcotest.test_case "incremental = bulk" `Quick test_incremental_equals_bulk;
          Alcotest.test_case "point update skips known records" `Quick test_skip_engages;
          Alcotest.test_case "point update splices untouched items" `Quick
            test_splice_engages;
          QCheck_alcotest.to_alcotest qcheck_incremental_invariance ] );
      ( "ablations",
        [ Alcotest.test_case "non-SI order dependent" `Quick test_non_si_is_order_dependent;
          Alcotest.test_case "non-SI lowers sharing" `Quick test_non_si_lowers_sharing;
          Alcotest.test_case "non-RI zero sharing" `Quick test_non_ri_zero_sharing;
          Alcotest.test_case "RI high sharing" `Quick test_ri_enabled_high_sharing ] );
      ( "prolly-mode",
        [ Alcotest.test_case "rolling internal rule SI" `Quick test_rolling_internal_rule ] ) ]
