(* SIRI core: record ops, reference diff, merge policies, deterministic RNG,
   the generic tree diff, deduplication metrics and the Section 4 cost
   models. *)

open Siri_core
module Store = Siri_store.Store
module Hash = Siri_crypto.Hash

(* --- kv -------------------------------------------------------------------- *)

let test_sort_ops_last_wins () =
  let ops = [ Kv.Put ("b", "1"); Kv.Put ("a", "1"); Kv.Put ("b", "2"); Kv.Del "a" ] in
  match Kv.sort_ops ops with
  | [ Kv.Del "a"; Kv.Put ("b", "2") ] -> ()
  | other ->
      Alcotest.failf "unexpected: %d ops, first key %s" (List.length other)
        (Kv.key_of_op (List.hd other))

let test_apply_sorted () =
  let entries = [ ("a", "1"); ("c", "3"); ("e", "5") ] in
  let ops = [ Kv.Put ("b", "2"); Kv.Del "c"; Kv.Put ("e", "55"); Kv.Del "z" ] in
  Alcotest.(check (list (pair string string)))
    "merge" [ ("a", "1"); ("b", "2"); ("e", "55") ]
    (Kv.apply_sorted entries ops)

let test_apply_sorted_empty () =
  Alcotest.(check (list (pair string string)))
    "ops into empty" [ ("a", "1") ]
    (Kv.apply_sorted [] [ Kv.Put ("a", "1"); Kv.Del "b" ]);
  Alcotest.(check (list (pair string string)))
    "no ops" [ ("a", "1") ]
    (Kv.apply_sorted [ ("a", "1") ] [])

let test_diff_sorted () =
  let l = [ ("a", "1"); ("b", "2"); ("d", "4") ] in
  let r = [ ("b", "2"); ("c", "3"); ("d", "44") ] in
  let d = Kv.diff_sorted l r in
  Alcotest.(check int) "3 diffs" 3 (List.length d);
  let by_key k = List.find (fun (e : Kv.diff_entry) -> e.key = k) d in
  Alcotest.(check bool) "a left-only" true ((by_key "a").right = None);
  Alcotest.(check bool) "c right-only" true ((by_key "c").left = None);
  Alcotest.(check bool) "d changed" true
    ((by_key "d").left = Some "4" && (by_key "d").right = Some "44")

let test_merge_policies () =
  let ok = function Ok v -> v | Error _ -> Alcotest.fail "conflict" in
  Alcotest.(check string) "equal values" "x"
    (ok (Kv.merge_values Kv.Fail_on_conflict "k" "x" "x"));
  Alcotest.(check string) "prefer left" "l"
    (ok (Kv.merge_values Kv.Prefer_left "k" "l" "r"));
  Alcotest.(check string) "prefer right" "r"
    (ok (Kv.merge_values Kv.Prefer_right "k" "l" "r"));
  Alcotest.(check string) "resolver" "l+r"
    (ok (Kv.merge_values (Kv.Resolve (fun _ a b -> a ^ "+" ^ b)) "k" "l" "r"));
  match Kv.merge_values Kv.Fail_on_conflict "k" "l" "r" with
  | Ok _ -> Alcotest.fail "expected conflict"
  | Error c -> Alcotest.(check string) "conflict key" "k" c.key

let qcheck_diff_sorted_symmetry =
  let entries_gen =
    QCheck.Gen.(
      map
        (fun l ->
          List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) l)
        (list_size (0 -- 30) (pair (string_size (1 -- 4)) (string_size (0 -- 4)))))
  in
  QCheck.Test.make ~name:"diff symmetric under swap" ~count:200
    (QCheck.make QCheck.Gen.(pair entries_gen entries_gen))
    (fun (l, r) ->
      let d1 = Kv.diff_sorted l r and d2 = Kv.diff_sorted r l in
      List.length d1 = List.length d2
      && List.for_all2
           (fun (a : Kv.diff_entry) (b : Kv.diff_entry) ->
             a.key = b.key && a.left = b.right && a.right = b.left)
           d1 d2)

(* --- rng -------------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 99 and b = Rng.create 99 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_ranges () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng 10 20 in
    Alcotest.(check bool) "in range" true (v >= 10 && v <= 20);
    let f = Rng.float rng in
    Alcotest.(check bool) "float in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_shuffle_permutes () =
  let rng = Rng.create 6 in
  let l = List.init 50 Fun.id in
  let s = Rng.shuffle rng l in
  Alcotest.(check (list int)) "same multiset" l (List.sort compare s);
  Alcotest.(check bool) "actually shuffled" true (s <> l)

(* --- tree diff --------------------------------------------------------------- *)

(* A parent node's bytes: a tag, then its children's hashes, with the
   offsets they sit at. *)
let parent_node tag children =
  ( tag ^ String.concat "" (List.map Hash.to_raw children),
    Array.of_list (List.mapi (fun i _ -> String.length tag + (i * Hash.size)) children) )

(* A synthetic two-level tree in a store, using the decode adapter shape. *)
let synth_tree store leaves =
  (* leaves : (key * value) list list; returns (root, decode). *)
  let tbl = Hash.Table.create 16 in
  let leaf_refs =
    List.map
      (fun entries ->
        let bytes = Marshal.to_string (`Leaf entries) [] in
        let h = Store.put store bytes in
        Hash.Table.replace tbl h (Tree_diff.Entries entries);
        (fst (List.nth entries (List.length entries - 1)), h))
      leaves
  in
  let root_bytes, child_offsets = parent_node "root:" (List.map snd leaf_refs) in
  let root = Store.put store ~child_offsets root_bytes in
  Hash.Table.replace tbl root (Tree_diff.Children (1, leaf_refs));
  (root, Hash.Table.find tbl)

let test_tree_diff_prunes_and_finds () =
  let store = Store.create () in
  let root1, decode =
    synth_tree store [ [ ("a", "1"); ("b", "2") ]; [ ("c", "3"); ("d", "4") ] ]
  in
  let decode2 = ref decode in
  let root2, d2 =
    synth_tree store [ [ ("a", "1"); ("b", "2") ]; [ ("c", "3"); ("d", "44") ] ]
  in
  (* Merge the decode tables: fall back to the other on Not_found. *)
  let decode h = try d2 h with Not_found -> !decode2 h in
  let diff = Tree_diff.diff ~decode ~left:root1 ~right:root2 in
  Alcotest.(check int) "one diff" 1 (List.length diff);
  let e = List.hd diff in
  Alcotest.(check string) "key d" "d" e.Kv.key;
  Alcotest.(check (option string)) "left" (Some "4") e.Kv.left;
  Alcotest.(check (option string)) "right" (Some "44") e.Kv.right

let test_tree_diff_identical_roots () =
  let store = Store.create () in
  let root, decode = synth_tree store [ [ ("a", "1") ] ] in
  Alcotest.(check int) "no diff" 0
    (List.length (Tree_diff.diff ~decode ~left:root ~right:root))

let test_tree_diff_null_roots () =
  let store = Store.create () in
  let root, decode = synth_tree store [ [ ("a", "1") ] ] in
  let d = Tree_diff.diff ~decode ~left:root ~right:Hash.null in
  Alcotest.(check int) "all left" 1 (List.length d);
  Alcotest.(check bool) "left side" true ((List.hd d).Kv.right = None);
  Alcotest.(check int) "null/null" 0
    (List.length (Tree_diff.diff ~decode ~left:Hash.null ~right:Hash.null))

let test_tree_diff_entries () =
  let store = Store.create () in
  let root, decode =
    synth_tree store [ [ ("a", "1"); ("b", "2") ]; [ ("c", "3") ] ]
  in
  Alcotest.(check (list (pair string string)))
    "flattened" [ ("a", "1"); ("b", "2"); ("c", "3") ]
    (Tree_diff.entries ~decode root)

(* --- dedup metrics ------------------------------------------------------------ *)

let test_dedup_ratio_hand_built () =
  let s = Store.create () in
  (* Two instances sharing one 42-byte node; each has a private 42-byte
     node (a 10-byte tag and the shared node's hash): union = 3 * 42
     bytes, sum = 4 * 42 → η = 1/4. *)
  let shared = Store.put s ("shared-10b" ^ String.make Hash.size 's') in
  let private_node tag =
    let bytes, child_offsets = parent_node tag [ shared ] in
    Store.put s ~child_offsets bytes
  in
  let a = private_node "private-a!" in
  let b = private_node "private-b!" in
  Alcotest.(check (float 1e-9)) "eta" 0.25 (Dedup.dedup_ratio s [ a; b ]);
  Alcotest.(check (float 1e-9)) "sharing" 0.25 (Dedup.node_sharing_ratio s [ a; b ]);
  Alcotest.(check int) "union bytes" (3 * 42) (Dedup.union_bytes s [ a; b ]);
  Alcotest.(check int) "sum bytes" (4 * 42) (Dedup.sum_bytes s [ a; b ])

let test_dedup_degenerate () =
  let s = Store.create () in
  Alcotest.(check (float 1e-9)) "empty set" 0.0 (Dedup.dedup_ratio s []);
  let a = Store.put s "alone" in
  Alcotest.(check (float 1e-9)) "single instance" 0.0 (Dedup.dedup_ratio s [ a ]);
  Alcotest.(check (float 1e-9)) "identical instances" 0.5
    (Dedup.dedup_ratio s [ a; a ])

let test_analytic_eta () =
  Alcotest.(check (float 1e-9)) "alpha 0" 0.5 (Dedup.analytic_eta ~alpha:0.0);
  Alcotest.(check (float 1e-9)) "alpha 1" 0.0 (Dedup.analytic_eta ~alpha:1.0);
  Alcotest.(check (float 1e-9)) "alpha .2" 0.4 (Dedup.analytic_eta ~alpha:0.2)

(* --- bounds -------------------------------------------------------------------- *)

let test_bounds_shapes () =
  let p = { Bounds.n = 1_000_000; m = 25; b = 10_000; l = 40; delta = 100 } in
  (* MPT lookup is dominated by key length when L > log_m N. *)
  Alcotest.(check (float 1e-9)) "mpt = L" 40.0 (Bounds.cost Bounds.Mpt Bounds.Lookup p);
  (* POS lookup is log_m N. *)
  Alcotest.(check bool) "pos < mpt" true
    (Bounds.cost Bounds.Pos Bounds.Lookup p < Bounds.cost Bounds.Mpt Bounds.Lookup p);
  (* MBT update pays the N/B bucket copy. *)
  Alcotest.(check bool) "mbt update >> mbt lookup" true
    (Bounds.cost Bounds.Mbt Bounds.Update p
    > 2.0 *. Bounds.cost Bounds.Mbt Bounds.Lookup p);
  (* Diff scales by delta. *)
  Alcotest.(check (float 1e-6))
    "diff = delta * lookup"
    (Float.of_int p.delta *. Bounds.cost Bounds.Pos Bounds.Lookup p)
    (Bounds.cost Bounds.Pos Bounds.Diff p)

let test_bounds_table () =
  let rows = Bounds.table Bounds.default in
  Alcotest.(check int) "4 structures" 4 (List.length rows);
  List.iter
    (fun (_, cells) -> Alcotest.(check int) "4 operations" 4 (List.length cells))
    rows

(* --- proof helpers -------------------------------------------------------------- *)

let test_proof_helpers () =
  let p = { Proof.key = "k"; value = Some "v"; nodes = [ "aaa"; "bb" ] } in
  Alcotest.(check int) "size" 5 (Proof.size_bytes p);
  (match Proof.root_hash p with
  | Some h -> Alcotest.(check bool) "root hash" true (Hash.equal h (Hash.of_string "aaa"))
  | None -> Alcotest.fail "expected root hash");
  let tampered = Proof.tamper p in
  Alcotest.(check bool) "tamper changes deepest" true (tampered.nodes <> p.nodes);
  Alcotest.(check bool) "empty proof root" true
    (Proof.root_hash { p with nodes = [] } = None)

let () =
  Alcotest.run "core"
    [ ( "kv",
        [ Alcotest.test_case "sort_ops last wins" `Quick test_sort_ops_last_wins;
          Alcotest.test_case "apply_sorted" `Quick test_apply_sorted;
          Alcotest.test_case "apply_sorted edges" `Quick test_apply_sorted_empty;
          Alcotest.test_case "diff_sorted" `Quick test_diff_sorted;
          Alcotest.test_case "merge policies" `Quick test_merge_policies;
          QCheck_alcotest.to_alcotest qcheck_diff_sorted_symmetry ] );
      ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutes ] );
      ( "tree_diff",
        [ Alcotest.test_case "prunes and finds" `Quick test_tree_diff_prunes_and_finds;
          Alcotest.test_case "identical roots" `Quick test_tree_diff_identical_roots;
          Alcotest.test_case "null roots" `Quick test_tree_diff_null_roots;
          Alcotest.test_case "entries" `Quick test_tree_diff_entries ] );
      ( "dedup",
        [ Alcotest.test_case "hand-built page sets" `Quick test_dedup_ratio_hand_built;
          Alcotest.test_case "degenerate cases" `Quick test_dedup_degenerate;
          Alcotest.test_case "analytic eta" `Quick test_analytic_eta ] );
      ( "bounds",
        [ Alcotest.test_case "shapes" `Quick test_bounds_shapes;
          Alcotest.test_case "table" `Quick test_bounds_table ] );
      ( "proof",
        [ Alcotest.test_case "helpers" `Quick test_proof_helpers ] ) ]
