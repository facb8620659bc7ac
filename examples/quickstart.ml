(* Quickstart: the five-minute tour of the SIRI library.

   Run with:  dune exec examples/quickstart.exe

   Covers: building an index, immutable versions, lookups, diff, merge,
   Merkle proofs, and the deduplication metrics.  Writes go through the
   index's own module; reads go through its uniform [Generic.t] view. *)

open Siri_core
module Store = Siri_store.Store
module Pos = Siri_pos.Pos_tree
module Hash = Siri_crypto.Hash

let () =
  (* 1. A content-addressed store and an empty POS-Tree. *)
  let store = Store.create () in
  let cfg = Pos.config ~leaf_target:1024 () in
  let v0 = Pos.empty store cfg in

  (* 2. Bulk-load some records; the result is a new immutable version. *)
  let entries =
    List.init 10_000 (fun i ->
        (Printf.sprintf "user%05d" i, Printf.sprintf "balance=%d" (i * 7)))
  in
  let v1 = Pos.of_entries store cfg entries in
  let g1 = Pos.generic v1 in
  Printf.printf "v1 root    : %s (%d records, height %d)\n"
    (Hash.short (Pos.root v1)) (g1.Generic.cardinal ()) (Pos.height v1);

  (* 3. Point reads. *)
  Printf.printf "lookup     : user00042 -> %s\n"
    (Option.value ~default:"<absent>" (Generic.get g1 "user00042"));

  (* 4. Updates produce a NEW version; v1 is untouched. *)
  let v2 = Pos.insert v1 "user00042" "balance=1000000" in
  let g2 = Pos.generic v2 in
  Printf.printf "v2 root    : %s\n" (Hash.short (Pos.root v2));
  Printf.printf "v1 still   : user00042 -> %s\n"
    (Option.get (Generic.get g1 "user00042"));
  Printf.printf "v2 now     : user00042 -> %s\n"
    (Option.get (Generic.get g2 "user00042"));

  (* 5. Diff is proportional to the change, not to the data size. *)
  let diffs = g1.Generic.diff (Pos.root v2) in
  Printf.printf "diff v1 v2 : %d record(s) differ\n" (List.length diffs);
  List.iter
    (fun d -> Format.printf "             %a@." Kv.pp_diff_entry d)
    diffs;

  (* 6. Structural sharing: the two versions share almost every node. *)
  Printf.printf "dedup ratio: %.3f (node sharing %.3f)\n"
    (Dedup.dedup_ratio store [ Pos.root v1; Pos.root v2 ])
    (Dedup.node_sharing_ratio store [ Pos.root v1; Pos.root v2 ]);

  (* 7. Merkle proofs: convince a party who only knows the root digest. *)
  let proof = g2.Generic.prove "user00042" in
  Printf.printf "proof      : %d nodes, %d bytes, verifies: %b\n"
    (List.length proof.Proof.nodes)
    (Proof.size_bytes proof)
    (g2.Generic.verify ~root:(Pos.root v2) proof);
  Printf.printf "tampered   : verifies: %b\n"
    (g2.Generic.verify ~root:(Pos.root v2) (Proof.tamper proof));

  (* 8. Merge two divergent versions (three-way-free record union). *)
  let va = Pos.insert v1 "only-in-a" "1" in
  let vb = Pos.insert v1 "only-in-b" "2" in
  (match (Pos.generic va).Generic.merge Kv.Fail_on_conflict (Pos.root vb) with
  | Ok gm ->
      Printf.printf "merge      : %d records (both sides present: %b)\n"
        (gm.Generic.cardinal ())
        (Generic.get gm "only-in-a" = Some "1"
        && Generic.get gm "only-in-b" = Some "2")
  | Error conflicts ->
      Printf.printf "merge      : %d conflicts!\n" (List.length conflicts));

  (* 9. Structural invariance: insertion order does not matter. *)
  let shuffled = Rng.shuffle (Rng.create 1) entries in
  let rebuilt =
    List.fold_left (fun t (k, v) -> Pos.insert t k v) (Pos.empty store cfg) shuffled
  in
  Printf.printf "invariant  : shuffled rebuild has same root: %b\n"
    (Hash.equal (Pos.root rebuilt) (Pos.root v1));
  ignore v0
