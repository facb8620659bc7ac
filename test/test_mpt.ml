(* Merkle Patricia Trie: the shared conformance battery plus MPT-specific
   behaviour — path compaction, canonical deletes, prefix keys, and the SIRI
   properties of Definition 3.1. *)

open Siri_core
module Store = Siri_store.Store
module Mpt = Siri_mpt.Mpt
module Hash = Siri_crypto.Hash

let mk () = Mpt.generic (Mpt.empty (Store.create ()))

(* --- SIRI properties --------------------------------------------------------- *)

let shared_store_build () =
  let store = Store.create () in
  fun entries -> Mpt.generic (Mpt.of_entries store entries)

let some_entries =
  List.init 60 (fun i -> (Printf.sprintf "key-%04d" (i * 17), string_of_int i))

let test_structurally_invariant () =
  Alcotest.(check bool) "Definition 3.1(1)" true
    (Properties.structurally_invariant ~build:(shared_store_build ())
       ~entries:some_entries ~permutations:5 ~seed:1)

let test_recursively_identical () =
  Alcotest.(check bool) "Definition 3.1(2)" true
    (Properties.recursively_identical ~build:(shared_store_build ())
       ~entries:some_entries ~extra:("key-9999", "x"))

let test_universally_reusable () =
  Alcotest.(check bool) "Definition 3.1(3)" true
    (Properties.universally_reusable ~build:(shared_store_build ())
       ~entries:some_entries
       ~more:(List.init 50 (fun i -> (Printf.sprintf "zz-%03d" i, Printf.sprintf "zv-%d" i))))

(* --- structure-specific ------------------------------------------------------- *)

let test_prefix_keys () =
  (* "a" is a prefix of "ab": values must land on branch nodes. *)
  let t = mk () in
  let t = Generic.of_entries t [ ("a", "1"); ("ab", "2"); ("abc", "3"); ("", "root-val") ] in
  Alcotest.(check (option string)) "a" (Some "1") (t.Generic.lookup "a");
  Alcotest.(check (option string)) "ab" (Some "2") (t.Generic.lookup "ab");
  Alcotest.(check (option string)) "abc" (Some "3") (t.Generic.lookup "abc");
  Alcotest.(check (option string)) "empty key" (Some "root-val") (t.Generic.lookup "");
  Alcotest.(check (option string)) "abcd absent" None (t.Generic.lookup "abcd");
  (* Delete the middle of the chain. *)
  let t = Generic.remove t "ab" in
  Alcotest.(check (option string)) "ab gone" None (t.Generic.lookup "ab");
  Alcotest.(check (option string)) "a kept" (Some "1") (t.Generic.lookup "a");
  Alcotest.(check (option string)) "abc kept" (Some "3") (t.Generic.lookup "abc")

let test_canonical_after_delete () =
  (* Removing records must restore exactly the root of the smaller set —
     extension/branch collapsing at work. *)
  let store = Store.create () in
  let base = List.init 40 (fun i -> (Printf.sprintf "node%03d" i, "v")) in
  let extra = List.init 10 (fun i -> (Printf.sprintf "xtra%03d" i, "w")) in
  let small = Mpt.of_entries store base in
  let big = Mpt.of_entries store (base @ extra) in
  let shrunk = List.fold_left (fun t (k, _) -> Mpt.remove t k) big extra in
  Alcotest.(check bool) "roots equal" true
    (Hash.equal (Mpt.root small) (Mpt.root shrunk))

let qcheck_canonical_delete =
  QCheck.Test.make ~name:"delete restores canonical root" ~count:50
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 30) (string_gen_of_size Gen.(1 -- 5) Gen.(char_range 'a' 'd')))
        (list_of_size Gen.(1 -- 10) (string_gen_of_size Gen.(1 -- 5) Gen.(char_range 'e' 'h'))))
    (fun (base, extra) ->
      let dedup l = List.sort_uniq String.compare l in
      let base = dedup base and extra = dedup extra in
      let store = Store.create () in
      let entries keys = List.map (fun k -> (k, "v-" ^ k)) keys in
      let small = Mpt.of_entries store (entries base) in
      let big = Mpt.of_entries store (entries (base @ extra)) in
      let shrunk = List.fold_left (fun t k -> Mpt.remove t k) big extra in
      Hash.equal (Mpt.root small) (Mpt.root shrunk))

let test_path_compaction_depth () =
  (* Keys sharing a long prefix: compaction keeps the path short.  Two keys
     diverging at the last nibble need only ~3 nodes (ext+branch+leaves). *)
  let store = Store.create () in
  let t =
    Mpt.of_entries store
      [ ("aaaaaaaaaaaaaaaa1", "x"); ("aaaaaaaaaaaaaaaa2", "y") ]
  in
  let g = Mpt.generic t in
  Alcotest.(check bool) "compact depth" true (g.Generic.path_length "aaaaaaaaaaaaaaaa1" <= 4);
  Alcotest.(check int) "node count small" 4 (Generic.node_count g)

let test_node_sharing_between_versions () =
  let store = Store.create () in
  (* Values must be distinct: identical leaves would deduplicate *within*
     one tree and shrink the page sets. *)
  let entries = List.init 500 (fun i -> (Printf.sprintf "user%06d" i, Printf.sprintf "val-%d" i)) in
  let v1 = Mpt.of_entries store entries in
  let v2 = Mpt.insert v1 "user000250" "CHANGED" in
  let p1 = Store.reachable store (Mpt.root v1) in
  let p2 = Store.reachable store (Mpt.root v2) in
  let shared = Hash.Set.cardinal (Hash.Set.inter p1 p2) in
  let total = Hash.Set.cardinal p1 in
  Alcotest.(check bool)
    (Printf.sprintf "shared %d / %d" shared total)
    true
    (shared * 10 >= total * 9)

let test_key_order_is_byte_order () =
  let t = Generic.of_entries (mk ()) [ ("b", "2"); ("a", "1"); ("c", "3") ] in
  Alcotest.(check (list (pair string string)))
    "sorted" [ ("a", "1"); ("b", "2"); ("c", "3") ]
    (t.Generic.to_list ())

let test_proof_size_grows_with_depth () =
  let store = Store.create () in
  let t = Mpt.of_entries store (List.init 2000 (fun i -> (Printf.sprintf "%08d" i, "v"))) in
  let p = (Mpt.generic t).Generic.prove "00000042" in
  Alcotest.(check bool) "multi node proof" true (List.length p.Proof.nodes >= 2)

let () =
  Alcotest.run "mpt"
    [ ("conformance", Index_suite.cases "mpt" mk);
      ( "siri-properties",
        [ Alcotest.test_case "structurally invariant" `Quick test_structurally_invariant;
          Alcotest.test_case "recursively identical" `Quick test_recursively_identical;
          Alcotest.test_case "universally reusable" `Quick test_universally_reusable ] );
      ( "structure",
        [ Alcotest.test_case "prefix keys & branch values" `Quick test_prefix_keys;
          Alcotest.test_case "canonical after delete" `Quick test_canonical_after_delete;
          QCheck_alcotest.to_alcotest qcheck_canonical_delete;
          Alcotest.test_case "path compaction" `Quick test_path_compaction_depth;
          Alcotest.test_case "version node sharing" `Quick test_node_sharing_between_versions;
          Alcotest.test_case "byte-ordered traversal" `Quick test_key_order_is_byte_order;
          Alcotest.test_case "proof depth" `Quick test_proof_size_grows_with_depth ] ) ]
