(* Merkle Bucket Tree: conformance battery plus the fixed-shape behaviour,
   the load/scan lookup phases, bucket distribution and config coupling. *)

open Siri_core
module Store = Siri_store.Store
module Mbt = Siri_mbt.Mbt
module Hash = Siri_crypto.Hash

let cfg = Mbt.config ~capacity:32 ~fanout:4 ()
let mk () = Mbt.generic (Mbt.empty (Store.create ()) cfg)

(* --- SIRI properties ---------------------------------------------------------- *)

let shared_store_build () =
  let store = Store.create () in
  fun entries -> Mbt.generic (Mbt.of_entries store cfg entries)

let some_entries =
  List.init 80 (fun i -> (Printf.sprintf "rec-%04d" (i * 13), string_of_int i))

let test_structurally_invariant () =
  Alcotest.(check bool) "Definition 3.1(1)" true
    (Properties.structurally_invariant ~build:(shared_store_build ())
       ~entries:some_entries ~permutations:5 ~seed:2)

let test_recursively_identical () =
  Alcotest.(check bool) "Definition 3.1(2)" true
    (Properties.recursively_identical ~build:(shared_store_build ())
       ~entries:some_entries ~extra:("rec-9999", "x"))

let test_universally_reusable () =
  Alcotest.(check bool) "Definition 3.1(3)" true
    (Properties.universally_reusable ~build:(shared_store_build ())
       ~entries:some_entries
       ~more:(List.init 50 (fun i -> (Printf.sprintf "zz-%03d" i, Printf.sprintf "zv-%d" i))))

(* --- structure-specific --------------------------------------------------------- *)

let test_fixed_shape () =
  (* The tree shape never changes: path length is constant regardless of N. *)
  let store = Store.create () in
  let small = Mbt.of_entries store cfg [ ("a", "1") ] in
  let big =
    Mbt.of_entries store cfg
      (List.init 2000 (fun i -> (Printf.sprintf "k%05d" i, "v")))
  in
  Alcotest.(check int) "same depth"
    ((Mbt.generic small).Generic.path_length "a")
    ((Mbt.generic big).Generic.path_length "a");
  (* Number of nodes is bounded by the fixed structure, not by N. *)
  let nodes t = Hash.Set.cardinal (Store.reachable store (Mbt.root t)) in
  Alcotest.(check bool) "node count bounded" true (nodes big <= nodes small + 45)

let test_empty_buckets_shared () =
  (* All-empty buckets are byte-identical: an empty MBT stores one bucket
     node plus one internal node per level batch of distinct shapes. *)
  let store = Store.create () in
  let t = Mbt.empty store cfg in
  let n = Hash.Set.cardinal (Store.reachable store (Mbt.root t)) in
  (* 1 shared empty bucket + internal nodes (identical ones shared too). *)
  Alcotest.(check bool) (Printf.sprintf "only %d distinct nodes" n) true (n <= 6)

let test_bucket_distribution () =
  let entries = List.init 3200 (fun i -> Printf.sprintf "key-%06d" i) in
  let counts = Array.make cfg.Mbt.capacity 0 in
  List.iter
    (fun k ->
      let b = Mbt.bucket_index cfg k in
      counts.(b) <- counts.(b) + 1)
    entries;
  let expected = 3200 / cfg.Mbt.capacity in
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d count %d vs %d" i c expected)
        true
        (c > expected / 3 && c < expected * 3))
    counts

let test_load_scan_phases () =
  let store = Store.create () in
  let entries = List.init 640 (fun i -> (Printf.sprintf "k%05d" i, string_of_int i)) in
  let t = Mbt.of_entries store cfg entries in
  List.iteri
    (fun i (k, v) ->
      if i mod 53 = 0 then begin
        let bucket = Mbt.load_bucket t k in
        Alcotest.(check bool) "bucket grows with N/B" true (Mbt.bucket_size bucket > 0);
        Alcotest.(check (option string)) "scan finds" (Some v) (Mbt.scan_bucket bucket k)
      end)
    entries;
  (* Scanning a wrong bucket misses. *)
  let b0 = Mbt.load_bucket t "k00000" in
  Alcotest.(check (option string)) "scan absent" None (Mbt.scan_bucket b0 "not-there")

let test_bucket_size_tracks_n_over_b () =
  let store = Store.create () in
  let t1 = Mbt.of_entries store cfg (List.init 320 (fun i -> (Printf.sprintf "a%04d" i, "v"))) in
  let t2 = Mbt.of_entries store cfg (List.init 3200 (fun i -> (Printf.sprintf "a%04d" i, "v"))) in
  let avg t n =
    Float.of_int n /. Float.of_int cfg.Mbt.capacity
    |> fun e ->
    let b = Mbt.load_bucket t "a0000" in
    (Float.of_int (Mbt.bucket_size b), e)
  in
  let s1, e1 = avg t1 320 and s2, e2 = avg t2 3200 in
  Alcotest.(check bool)
    (Printf.sprintf "buckets scale: %.0f/%.0f then %.0f/%.0f" s1 e1 s2 e2)
    true
    (s2 > s1)

let test_config_mismatch_rejected () =
  let store = Store.create () in
  let a = Mbt.of_entries store cfg [ ("a", "1") ] in
  let other = Mbt.of_entries store (Mbt.config ~capacity:8 ~fanout:2 ()) [ ("a", "1") ] in
  Alcotest.check_raises "diff rejects config mismatch"
    (Invalid_argument "Mbt.diff: instances have different configurations")
    (fun () -> ignore (Mbt.diff a other))

let test_different_capacity_different_root () =
  let store = Store.create () in
  let e = [ ("a", "1"); ("b", "2") ] in
  let t1 = Mbt.of_entries store (Mbt.config ~capacity:8 ~fanout:2 ()) e in
  let t2 = Mbt.of_entries store (Mbt.config ~capacity:16 ~fanout:2 ()) e in
  Alcotest.(check bool) "roots differ" false (Hash.equal (Mbt.root t1) (Mbt.root t2))

let test_config_validation () =
  Alcotest.check_raises "capacity >= 1"
    (Invalid_argument "Mbt.config: capacity must be >= 1") (fun () ->
      ignore (Mbt.config ~capacity:0 ()));
  Alcotest.check_raises "fanout >= 2"
    (Invalid_argument "Mbt.config: fanout must be >= 2") (fun () ->
      ignore (Mbt.config ~fanout:1 ()))

let test_capacity_one () =
  (* Degenerate single-bucket tree: the bucket is the root. *)
  let store = Store.create () in
  let c1 = Mbt.config ~capacity:1 ~fanout:2 () in
  let t = Mbt.of_entries store c1 [ ("a", "1"); ("b", "2") ] in
  Alcotest.(check int) "path length 1" 1 ((Mbt.generic t).Generic.path_length "a");
  Alcotest.(check (option string)) "lookup" (Some "2") ((Mbt.generic t).Generic.lookup "b")

let () =
  Alcotest.run "mbt"
    [ ("conformance", Index_suite.cases "mbt" mk);
      ( "siri-properties",
        [ Alcotest.test_case "structurally invariant" `Quick test_structurally_invariant;
          Alcotest.test_case "recursively identical" `Quick test_recursively_identical;
          Alcotest.test_case "universally reusable" `Quick test_universally_reusable ] );
      ( "structure",
        [ Alcotest.test_case "fixed shape" `Quick test_fixed_shape;
          Alcotest.test_case "empty buckets shared" `Quick test_empty_buckets_shared;
          Alcotest.test_case "bucket distribution" `Quick test_bucket_distribution;
          Alcotest.test_case "load/scan phases" `Quick test_load_scan_phases;
          Alcotest.test_case "bucket size ~ N/B" `Quick test_bucket_size_tracks_n_over_b;
          Alcotest.test_case "config mismatch" `Quick test_config_mismatch_rejected;
          Alcotest.test_case "capacity changes root" `Quick test_different_capacity_different_root;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "capacity 1" `Quick test_capacity_one ] ) ]
