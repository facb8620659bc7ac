(* Differential testing: the five structures are interchangeable SIRI
   instances, so any operation stream must leave them in record-identical
   states, with identical diffs, merges and range answers — only the node
   layouts (and hence roots) may differ across kinds. *)

open Siri_core
module Store = Siri_store.Store
module Mpt = Siri_mpt.Mpt
module Mbt = Siri_mbt.Mbt
module Pos = Siri_pos.Pos_tree
module Mvbt = Siri_mvbt.Mvbt
module Prolly = Siri_prolly.Prolly

let makers () =
  [ Mpt.generic (Mpt.empty (Store.create ()));
    Mbt.generic (Mbt.empty (Store.create ()) (Mbt.config ~capacity:32 ~fanout:4 ()));
    Pos.generic (Pos.empty (Store.create ()) (Pos.config ~leaf_target:256 ()));
    Mvbt.generic
      (Mvbt.empty (Store.create ()) (Mvbt.config ~leaf_capacity:4 ~internal_capacity:5 ()));
    Prolly.generic (Prolly.empty (Store.create ())) ]

let op_gen =
  QCheck.Gen.(
    list_size (0 -- 80)
      (map2
         (fun del (k, v) -> if del then Kv.Del k else Kv.Put (k, v))
         (frequency [ (1, return true); (3, return false) ])
         (pair
            (string_size ~gen:(char_range 'a' 'e') (1 -- 4))
            (string_size (0 -- 10)))))

let qcheck_same_records =
  QCheck.Test.make ~name:"all kinds agree after a random op stream" ~count:60
    (QCheck.make op_gen)
    (fun ops ->
      let finals = List.map (fun inst -> inst.Generic.batch ops) (makers ()) in
      match finals with
      | [] -> true
      | first :: rest ->
          let reference = first.Generic.to_list () in
          List.for_all (fun t -> t.Generic.to_list () = reference) rest)

let qcheck_same_diffs =
  QCheck.Test.make ~name:"all kinds report the same diff" ~count:40
    (QCheck.make QCheck.Gen.(pair op_gen op_gen))
    (fun (ops1, ops2) ->
      let results =
        List.map
          (fun inst ->
            let v1 = inst.Generic.batch ops1 in
            let v2 = v1.Generic.batch ops2 in
            List.sort
              (fun (a : Kv.diff_entry) (b : Kv.diff_entry) ->
                String.compare a.key b.key)
              (v1.Generic.diff v2.Generic.root))
          (makers ())
      in
      match results with
      | [] -> true
      | first :: rest -> List.for_all (fun d -> d = first) rest)

let qcheck_same_ranges =
  QCheck.Test.make ~name:"all kinds answer ranges identically" ~count:40
    (QCheck.make
       QCheck.Gen.(
         triple op_gen
           (option (string_size ~gen:(char_range 'a' 'e') (1 -- 3)))
           (option (string_size ~gen:(char_range 'a' 'e') (1 -- 3)))))
    (fun (ops, lo, hi) ->
      let answers =
        List.map
          (fun inst -> (inst.Generic.batch ops).Generic.range ~lo ~hi)
          (makers ())
      in
      match answers with
      | [] -> true
      | first :: rest -> List.for_all (fun r -> r = first) rest)

let qcheck_same_merge =
  QCheck.Test.make ~name:"all kinds merge to the same records" ~count:30
    (QCheck.make QCheck.Gen.(triple op_gen op_gen op_gen))
    (fun (base_ops, left_ops, right_ops) ->
      let outcomes =
        List.map
          (fun inst ->
            let base = inst.Generic.batch base_ops in
            let l = base.Generic.batch left_ops in
            let r = base.Generic.batch right_ops in
            match l.Generic.merge Kv.Prefer_right r.Generic.root with
            | Ok m -> m.Generic.to_list ()
            | Error _ -> [ ("<conflict>", "") ])
          (makers ())
      in
      match outcomes with
      | [] -> true
      | first :: rest -> List.for_all (fun o -> o = first) rest)

(* [bulk_load] resolves a duplicated key as [batch] does: the last
   occurrence wins, whatever the kind's bulk pipeline. *)
let test_bulk_load_duplicates () =
  let input =
    [ ("a", "first"); ("b", "x"); ("a", "last") ]
    @ List.init 200 (fun i -> (Printf.sprintf "k%03d" (i mod 120), string_of_int i))
  in
  List.iter
    (fun inst ->
      Alcotest.(check (list (pair string string)))
        (inst.Generic.name ^ " bulk_load = of_entries")
        ((Generic.of_entries inst input).Generic.to_list ())
        ((inst.Generic.bulk_load input).Generic.to_list ()))
    (makers ())

let qcheck_proofs_everywhere =
  QCheck.Test.make ~name:"proofs verify for every kind" ~count:30
    (QCheck.make QCheck.Gen.(pair op_gen (string_size ~gen:(char_range 'a' 'e') (1 -- 4))))
    (fun (ops, probe) ->
      List.for_all
        (fun inst ->
          let t = inst.Generic.batch ops in
          let p = t.Generic.prove probe in
          p.Proof.value = t.Generic.lookup probe
          && t.Generic.verify ~root:t.Generic.root p)
        (makers ()))

(* Adversarial robustness: verifiers must reject (never crash on) proofs
   containing arbitrary garbage bytes. *)
let garbage_proof_gen =
  QCheck.Gen.(
    map2
      (fun nodes value -> { Proof.key = "some-key"; value; nodes })
      (list_size (0 -- 4) (string_size (0 -- 120)))
      (option (string_size (0 -- 10))))

let qcheck_garbage_proofs_rejected =
  QCheck.Test.make ~name:"garbage proofs rejected without crashing" ~count:200
    (QCheck.make garbage_proof_gen)
    (fun proof ->
      List.for_all
        (fun inst ->
          let t =
            inst.Generic.batch [ Kv.Put ("some-key", "v"); Kv.Put ("other", "w") ]
          in
          (* Any verifier outcome is fine except [true] (garbage must not
             verify) or an exception. *)
          not (t.Generic.verify ~root:t.Generic.root proof))
        (makers ()))

let qcheck_garbage_range_proofs_rejected =
  QCheck.Test.make ~name:"garbage range proofs rejected" ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (0 -- 4) (string_size (0 -- 120)))
           (list_size (0 -- 3) (pair (string_size (1 -- 5)) (string_size (0 -- 5))))))
    (fun (nodes, entries) ->
      let store = Store.create () in
      let t =
        Pos.of_entries store
          (Pos.config ~leaf_target:256 ())
          [ ("a", "1"); ("b", "2"); ("c", "3") ]
      in
      let proof = { Range_proof.lo = None; hi = None; entries; nodes } in
      (* The only accepted "garbage" is the genuinely correct proof. *)
      let genuine = Pos.prove_range t ~lo:None ~hi:None in
      proof = genuine || not (Pos.verify_range_proof ~root:(Pos.root t) proof))

let () =
  Alcotest.run "differential"
    [ ( "cross-structure",
        [ QCheck_alcotest.to_alcotest qcheck_same_records;
          QCheck_alcotest.to_alcotest qcheck_same_diffs;
          QCheck_alcotest.to_alcotest qcheck_same_ranges;
          QCheck_alcotest.to_alcotest qcheck_same_merge;
          Alcotest.test_case "bulk_load keeps the last duplicate" `Quick
            test_bulk_load_duplicates;
          QCheck_alcotest.to_alcotest qcheck_proofs_everywhere ] );
      ( "adversarial",
        [ QCheck_alcotest.to_alcotest qcheck_garbage_proofs_rejected;
          QCheck_alcotest.to_alcotest qcheck_garbage_range_proofs_rejected ] ) ]
