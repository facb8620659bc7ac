(* MVMB+-Tree baseline: conformance battery plus B+-tree mechanics and the
   deliberate *absence* of structural invariance (Figure 2). *)

open Siri_core
module Store = Siri_store.Store
module Mvbt = Siri_mvbt.Mvbt
module Hash = Siri_crypto.Hash

let cfg = Mvbt.config ~leaf_capacity:4 ~internal_capacity:5 ()
let mk () = Mvbt.generic (Mvbt.empty (Store.create ()) cfg)

let entries_n n = List.init n (fun i -> (Printf.sprintf "key%06d" i, string_of_int i))

let test_splits_grow_height () =
  let store = Store.create () in
  Alcotest.(check int) "height 1" 1 (Mvbt.height (Mvbt.of_entries store cfg (entries_n 3)));
  let t = Mvbt.of_entries store cfg (entries_n 1000) in
  Alcotest.(check bool) "height > 3" true (Mvbt.height t > 3);
  Alcotest.(check bool) "height < 12" true (Mvbt.height t < 12)

let test_figure2_order_dependence () =
  (* The same record set inserted in different orders gives different
     internal structure — exactly Figure 2. *)
  let store = Store.create () in
  let entries = entries_n 100 in
  let asc = Mvbt.of_entries store cfg entries in
  let desc = Mvbt.of_entries store cfg (List.rev entries) in
  Alcotest.(check (list (pair string string)))
    "same records"
    ((Mvbt.generic asc).Generic.to_list ())
    ((Mvbt.generic desc).Generic.to_list ());
  Alcotest.(check bool) "different roots" false
    (Hash.equal (Mvbt.root asc) (Mvbt.root desc))

let test_not_structurally_invariant () =
  (* Run the Definition 3.1(1) checker and confirm it FAILS. *)
  let store = Store.create () in
  let build entries = Mvbt.generic (Mvbt.of_entries store cfg entries) in
  Alcotest.(check bool) "property checker rejects" false
    (Properties.structurally_invariant ~build ~entries:(entries_n 80)
       ~permutations:5 ~seed:4)

let test_still_recursively_identical () =
  (* Copy-on-write still shares pages between consecutive versions. *)
  let store = Store.create () in
  let build entries = Mvbt.generic (Mvbt.of_entries store cfg entries) in
  Alcotest.(check bool) "Definition 3.1(2) holds" true
    (Properties.recursively_identical ~build ~entries:(entries_n 200)
       ~extra:("zzz", "x"))

let test_leaf_capacity_respected () =
  let store = Store.create () in
  let t = Mvbt.of_entries store cfg (entries_n 500) in
  (* Walk all leaves via the page set: no leaf may exceed capacity.  We
     check indirectly: with capacity 4 and 500 records there must be at
     least 125 leaves. *)
  let nodes = Hash.Set.cardinal (Store.reachable store (Mvbt.root t)) in
  Alcotest.(check bool) (Printf.sprintf "%d nodes" nodes) true (nodes >= 125)

let test_sequential_vs_random_profile () =
  (* Ascending insertion produces half-full right-spine splits; random order
     packs differently; both must stay correct. *)
  let store = Store.create () in
  let rng = Rng.create 77 in
  let entries = entries_n 300 in
  let random = Mvbt.of_entries store cfg (Rng.shuffle rng entries) in
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option string)) k (Some v)
        ((Mvbt.generic random).Generic.lookup k))
    entries

let test_delete_collapses_root () =
  let store = Store.create () in
  let t = Mvbt.of_entries store cfg (entries_n 200) in
  let t =
    List.fold_left (fun t (k, _) -> Mvbt.remove t k) t (List.tl (entries_n 200))
  in
  Alcotest.(check int) "one record left" 1 ((Mvbt.generic t).Generic.cardinal ());
  Alcotest.(check int) "root collapsed to leaf" 1 (Mvbt.height t)

let test_version_sharing () =
  let store = Store.create () in
  let v1 = Mvbt.of_entries store cfg (entries_n 1000) in
  let v2 = Mvbt.insert v1 "key000500" "changed" in
  let p1 = Store.reachable store (Mvbt.root v1) in
  let p2 = Store.reachable store (Mvbt.root v2) in
  let shared = Hash.Set.cardinal (Hash.Set.inter p1 p2) in
  Alcotest.(check bool)
    (Printf.sprintf "shared %d of %d" shared (Hash.Set.cardinal p1))
    true
    (shared * 10 >= Hash.Set.cardinal p1 * 9)

let test_config_validation () =
  Alcotest.check_raises "capacity >= 2"
    (Invalid_argument "Mvbt.config: capacities must be >= 2") (fun () ->
      ignore (Mvbt.config ~leaf_capacity:1 ()))

let () =
  Alcotest.run "mvbt"
    [ ("conformance", Index_suite.cases "mvbt" mk);
      ( "structure",
        [ Alcotest.test_case "splits grow height" `Quick test_splits_grow_height;
          Alcotest.test_case "Figure 2 order dependence" `Quick test_figure2_order_dependence;
          Alcotest.test_case "NOT structurally invariant" `Quick test_not_structurally_invariant;
          Alcotest.test_case "recursively identical" `Quick test_still_recursively_identical;
          Alcotest.test_case "leaf capacity" `Quick test_leaf_capacity_respected;
          Alcotest.test_case "random insert order" `Quick test_sequential_vs_random_profile;
          Alcotest.test_case "delete collapses root" `Quick test_delete_collapses_root;
          Alcotest.test_case "version sharing" `Quick test_version_sharing;
          Alcotest.test_case "config validation" `Quick test_config_validation ] ) ]
