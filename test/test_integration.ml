(* Cross-structure integration: all four indexes over the same datasets,
   the Section 4.2 analytic deduplication bound, end-to-end tamper
   evidence, and the engine running on each index kind. *)

open Siri_core
module Store = Siri_store.Store
module Mpt = Siri_mpt.Mpt
module Mbt = Siri_mbt.Mbt
module Pos = Siri_pos.Pos_tree
module Mvbt = Siri_mvbt.Mvbt
module Engine = Siri_forkbase.Engine
module Ycsb = Siri_workload.Ycsb
module Versions = Siri_workload.Versions
module Ethereum = Siri_workload.Ethereum
module Hash = Siri_crypto.Hash

let makers () =
  [ (fun () -> Mpt.generic (Mpt.empty (Store.create ())));
    (fun () ->
      Mbt.generic (Mbt.empty (Store.create ()) (Mbt.config ~capacity:64 ~fanout:4 ())));
    (fun () ->
      Pos.generic (Pos.empty (Store.create ()) (Pos.config ~leaf_target:512 ())));
    (fun () ->
      Mvbt.generic (Mvbt.empty (Store.create ()) (Mvbt.config ()))) ]

let test_all_indexes_agree () =
  let y = Ycsb.create ~n:400 () in
  let entries = Ycsb.dataset y in
  let expected = List.sort (fun (a, _) (b, _) -> String.compare a b) entries in
  List.iter
    (fun mk ->
      let t = Generic.of_entries (mk ()) entries in
      Alcotest.(check int)
        (t.Generic.name ^ " cardinal")
        400
        (t.Generic.cardinal ());
      Alcotest.(check (list (pair string string)))
        (t.Generic.name ^ " records")
        expected
        (t.Generic.to_list ()))
    (makers ())

let test_eth_dataset_roundtrip () =
  let block = Ethereum.block ~txs_per_block:80 0 in
  let entries = Ethereum.entries_of_block block in
  List.iter
    (fun mk ->
      let t = Generic.of_entries (mk ()) entries in
      List.iter
        (fun (k, v) ->
          Alcotest.(check (option string)) (t.Generic.name ^ " tx") (Some v)
            (t.Generic.lookup k))
        entries)
    (makers ())

(* Section 4.2.2: for sequentially evolved versions with update fraction
   alpha, eta(two consecutive versions) ~ 1/2 - alpha/2 for POS and MBT. *)
let test_analytic_eta_validated () =
  let check_structure name mk_pair =
    List.iter
      (fun alpha ->
        let eta = mk_pair alpha in
        let predicted = Dedup.analytic_eta ~alpha in
        Alcotest.(check bool)
          (Printf.sprintf "%s alpha=%.1f: eta %.3f ~ predicted %.3f" name alpha
             eta predicted)
          true
          (Float.abs (eta -. predicted) < 0.18))
      [ 0.05; 0.2; 0.5 ]
  in
  let pos_pair alpha =
    let store = Store.create () in
    let y = Ycsb.create ~n:2000 () in
    let cfg = Pos.config ~leaf_target:1024 () in
    let v0 = Pos.of_entries store cfg (Ycsb.dataset y) in
    let rng = Rng.create 1 in
    let ops = List.hd (Versions.continuous_updates ~ycsb:y ~rng ~alpha ~versions:1) in
    let v1 = Pos.batch v0 ops in
    Dedup.dedup_ratio store [ Pos.root v0; Pos.root v1 ]
  in
  let mbt_pair alpha =
    let store = Store.create () in
    let y = Ycsb.create ~n:2000 () in
    (* B ~ N so that an alpha-fraction contiguous update touches ~alpha*B
       buckets, the regime of the paper's MBT derivation. *)
    let cfg = Mbt.config ~capacity:2048 ~fanout:4 () in
    let v0 = Mbt.of_entries store cfg (Ycsb.dataset y) in
    let rng = Rng.create 2 in
    let ops = List.hd (Versions.continuous_updates ~ycsb:y ~rng ~alpha ~versions:1) in
    let v1 = Mbt.batch v0 ops in
    Dedup.dedup_ratio store [ Mbt.root v0; Mbt.root v1 ]
  in
  check_structure "pos" pos_pair;
  check_structure "mbt" mbt_pair

let test_mpt_eta_exceeds_on_long_keys () =
  (* With long shared-prefix keys (L >= Lbar), MPT's eta >= 1/2 - alpha/2
     per the Section 4.2.2 inequality. *)
  let store = Store.create () in
  let n = 1500 in
  let key i = Printf.sprintf "%032d" i in
  let entries = List.init n (fun i -> (key i, Printf.sprintf "%064d" i)) in
  let v0 = Mpt.of_entries store entries in
  let alpha = 0.2 in
  let span = Float.to_int (alpha *. Float.of_int n) in
  let v1 =
    Mpt.batch v0
      (List.init span (fun i -> Kv.Put (key (500 + i), Printf.sprintf "%064d" (-(500 + i)))))
  in
  let eta = Dedup.dedup_ratio store [ Mpt.root v0; Mpt.root v1 ] in
  Alcotest.(check bool)
    (Printf.sprintf "eta %.3f >= %.3f" eta (Dedup.analytic_eta ~alpha -. 0.1))
    true
    (eta >= Dedup.analytic_eta ~alpha -. 0.1)

let test_tamper_evidence_end_to_end () =
  (* Corrupt one stored node; a fresh proof fetched from the corrupted store
     no longer verifies against the trusted root. *)
  let store = Store.create () in
  let entries = List.init 300 (fun i -> (Printf.sprintf "acct%05d" i, "100")) in
  let t = Mpt.of_entries store entries in
  let trusted_root = Mpt.root t in
  (* The attacker flips a byte in some internal node on the victim's path. *)
  let victim = "acct00123" in
  let g = Mpt.generic t in
  let proof_before = g.Generic.prove victim in
  Alcotest.(check bool) "clean proof ok" true
    (g.Generic.verify ~root:trusted_root proof_before);
  let path_node =
    (* second node of the proof, i.e. a non-root node *)
    Hash.of_string (List.nth proof_before.Proof.nodes 1)
  in
  Store.corrupt store path_node;
  (match Store.get_verified store path_node with
  | Ok _ -> Alcotest.fail "corruption must be detectable"
  | Error (`Tampered _) -> ());
  let proof_after = g.Generic.prove victim in
  Alcotest.(check bool) "tampered proof rejected" false
    (g.Generic.verify ~root:trusted_root proof_after)

let test_dedup_ranking_on_collaboration () =
  (* 4 groups with 60% overlap: every SIRI index must show substantial
     sharing; the non-SI baseline shows less on shuffled builds. *)
  let y = Ycsb.create ~n:500 () in
  let groups = 4 in
  let workloads =
    List.init groups (fun g ->
        Ycsb.overlap_workload y ~offset:0 ~group:g ~groups ~overlap_ratio:0.6 ~count:800)
  in
  let ratio_for of_entries root =
    let store = Store.create () in
    let roots =
      List.map
        (fun w ->
          let rng = Rng.create 3 in
          root (of_entries store (Rng.shuffle rng w)))
        workloads
    in
    Dedup.dedup_ratio store roots
  in
  let pos_cfg = Pos.config ~leaf_target:512 () in
  let pos = ratio_for (fun s e -> Pos.of_entries s pos_cfg e) Pos.root in
  let mpt = ratio_for Mpt.of_entries Mpt.root in
  (* Private records interleave with the shared ones in key order, so
     page-level sharing sits well below the record-level overlap; MPT's
     small nodes make it the most interleaving-resistant (the Figure 17c
     ranking). *)
  Alcotest.(check bool) (Printf.sprintf "pos eta %.2f > 0.03" pos) true (pos > 0.03);
  Alcotest.(check bool) (Printf.sprintf "mpt eta %.2f > 0.1" mpt) true (mpt > 0.1);
  Alcotest.(check bool)
    (Printf.sprintf "mpt %.2f >= pos %.2f (finer sharing granularity)" mpt pos)
    true (mpt >= pos)

let test_engine_over_every_index () =
  let engines =
    [ Engine.create ~empty_index:(Mpt.generic (Mpt.empty (Store.create ())));
      Engine.create
        ~empty_index:
          (Mbt.generic (Mbt.empty (Store.create ()) (Mbt.config ~capacity:32 ~fanout:4 ())));
      Engine.create
        ~empty_index:
          (Pos.generic (Pos.empty (Store.create ()) (Pos.config ~leaf_target:512 ())));
      Engine.create
        ~empty_index:(Mvbt.generic (Mvbt.empty (Store.create ()) (Mvbt.config ()))) ]
  in
  List.iter
    (fun e ->
      let _ = Engine.commit e ~branch:"master" ~message:"init"
          (List.init 100 (fun i -> Kv.Put (Printf.sprintf "k%03d" i, "v"))) in
      Engine.fork e ~from:"master" "dev";
      let _ = Engine.commit e ~branch:"dev" ~message:"dev" [ Kv.Put ("dev", "1") ] in
      (match Engine.merge_branches e ~into:"master" ~from:"dev" ~policy:Kv.Fail_on_conflict with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "no conflicts expected");
      Alcotest.(check (option string)) "merged" (Some "1")
        (Engine.get e ~branch:"master" "dev"))
    engines

let test_proofs_transferable () =
  (* A proof produced from one replica verifies with no store at all — only
     the root digest is needed. *)
  let store = Store.create () in
  let entries = List.init 200 (fun i -> (Printf.sprintf "doc%04d" i, "content")) in
  let cfg = Pos.config ~leaf_target:512 () in
  let t = Pos.of_entries store cfg entries in
  let root = Pos.root t in
  let proof = (Pos.generic t).Generic.prove "doc0042" in
  (* "Send" root+proof elsewhere: verify against an unrelated, empty
     store — only the root digest is needed. *)
  let elsewhere = Pos.generic (Pos.empty (Store.create ()) cfg) in
  Alcotest.(check bool) "verifies statelessly" true
    (elsewhere.Generic.verify ~root proof)

let () =
  Alcotest.run "integration"
    [ ( "cross-index",
        [ Alcotest.test_case "all indexes agree" `Quick test_all_indexes_agree;
          Alcotest.test_case "ethereum dataset" `Quick test_eth_dataset_roundtrip ] );
      ( "analysis",
        [ Alcotest.test_case "analytic eta validated" `Slow test_analytic_eta_validated;
          Alcotest.test_case "mpt eta on long keys" `Quick test_mpt_eta_exceeds_on_long_keys;
          Alcotest.test_case "collaboration dedup" `Slow test_dedup_ranking_on_collaboration ] );
      ( "tamper-evidence",
        [ Alcotest.test_case "end to end" `Quick test_tamper_evidence_end_to_end;
          Alcotest.test_case "stateless proof" `Quick test_proofs_transferable ] );
      ( "engine",
        [ Alcotest.test_case "engine over every index" `Quick test_engine_over_every_index ] ) ]
