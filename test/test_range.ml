(* Range queries across all index structures, and authenticated range scans
   (Range_proof) for the ordered Merkle trees. *)

open Siri_core
module Store = Siri_store.Store
module Mpt = Siri_mpt.Mpt
module Mbt = Siri_mbt.Mbt
module Pos = Siri_pos.Pos_tree
module Mvbt = Siri_mvbt.Mvbt
module Hash = Siri_crypto.Hash

let makers =
  [ ("mpt", fun () -> Mpt.generic (Mpt.empty (Store.create ())));
    ( "mbt",
      fun () ->
        Mbt.generic (Mbt.empty (Store.create ()) (Mbt.config ~capacity:32 ~fanout:4 ())) );
    ( "pos",
      fun () ->
        Pos.generic (Pos.empty (Store.create ()) (Pos.config ~leaf_target:256 ())) );
    ( "mvbt",
      fun () ->
        Mvbt.generic
          (Mvbt.empty (Store.create ())
             (Mvbt.config ~leaf_capacity:4 ~internal_capacity:5 ())) ) ]

let entries =
  List.init 500 (fun i -> (Printf.sprintf "k%06d" (i * 3), Printf.sprintf "v%d" i))

let reference ~lo ~hi =
  List.filter
    (fun (k, _) ->
      (match lo with None -> true | Some l -> String.compare k l >= 0)
      && match hi with None -> true | Some h -> String.compare k h <= 0)
    entries

let cases =
  [ (Some "k000300", Some "k000600");  (* interior, bounds on keys *)
    (Some "k0003", Some "k00060");     (* bounds between keys *)
    (None, Some "k000150");            (* prefix of the key space *)
    (Some "k001200", None);            (* suffix *)
    (None, None);                      (* everything *)
    (Some "k000600", Some "k000300");  (* inverted: empty *)
    (Some "zzz", None);                (* beyond the last key *)
    (None, Some "a");                  (* before the first key *)
    (Some "k000300", Some "k000300") ] (* single key *)

let test_range_matches_reference (name, mk) () =
  let t = Generic.of_entries (mk ()) entries in
  List.iter
    (fun (lo, hi) ->
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "%s range [%s, %s]" name
           (Option.value ~default:"-inf" lo)
           (Option.value ~default:"+inf" hi))
        (reference ~lo ~hi)
        (t.Generic.range ~lo ~hi))
    cases

let qcheck_range (name, mk) =
  let t = lazy (Generic.of_entries (mk ()) entries) in
  QCheck.Test.make
    ~name:(name ^ ": random ranges match filter")
    ~count:60
    QCheck.(pair (option (int_bound 1600)) (option (int_bound 1600)))
    (fun (lo_i, hi_i) ->
      let key = Option.map (Printf.sprintf "k%06d") in
      let lo = key lo_i and hi = key hi_i in
      (Lazy.force t).Generic.range ~lo ~hi = reference ~lo ~hi)

let test_range_empty_index (name, mk) () =
  let t = mk () in
  Alcotest.(check (list (pair string string)))
    (name ^ " empty") []
    (t.Generic.range ~lo:None ~hi:None)

(* --- MPT-specific: prefix keys near the bounds -------------------------------- *)

let test_mpt_prefix_boundaries () =
  let store = Store.create () in
  let t =
    Mpt.of_entries store
      [ ("a", "1"); ("ab", "2"); ("abc", "3"); ("abd", "4"); ("b", "5") ]
  in
  Alcotest.(check (list (pair string string)))
    "['ab','abd']"
    [ ("ab", "2"); ("abc", "3"); ("abd", "4") ]
    ((Mpt.generic t).Generic.range ~lo:(Some "ab") ~hi:(Some "abd"));
  Alcotest.(check (list (pair string string)))
    "up to 'ab' inclusive" [ ("a", "1"); ("ab", "2") ]
    ((Mpt.generic t).Generic.range ~lo:None ~hi:(Some "ab"));
  Alcotest.(check (list (pair string string)))
    "('abc', ...]" [ ("abd", "4"); ("b", "5") ]
    ((Mpt.generic t).Generic.range ~lo:(Some "abca") ~hi:None)

(* --- range proofs ----------------------------------------------------------------- *)

let pos_instance () =
  let store = Store.create () in
  (store, Pos.of_entries store (Pos.config ~leaf_target:256 ()) entries)

let mvbt_instance () =
  let store = Store.create () in
  ( store,
    Mvbt.of_entries store (Mvbt.config ~leaf_capacity:4 ~internal_capacity:5 ()) entries )

let test_pos_range_proof () =
  let _, t = pos_instance () in
  let root = Pos.root t in
  List.iter
    (fun (lo, hi) ->
      let proof = Pos.prove_range t ~lo ~hi in
      Alcotest.(check (list (pair string string)))
        "claimed entries" (reference ~lo ~hi) proof.Range_proof.entries;
      Alcotest.(check bool) "verifies" true (Pos.verify_range_proof ~root proof))
    cases

let test_mvbt_range_proof () =
  let _, t = mvbt_instance () in
  let root = Mvbt.root t in
  List.iter
    (fun (lo, hi) ->
      let proof = Mvbt.prove_range t ~lo ~hi in
      Alcotest.(check (list (pair string string)))
        "claimed entries" (reference ~lo ~hi) proof.Range_proof.entries;
      Alcotest.(check bool) "verifies" true (Mvbt.verify_range_proof ~root proof))
    cases

let test_range_proof_rejects_forgery () =
  let _, t = pos_instance () in
  let root = Pos.root t in
  let lo = Some "k000300" and hi = Some "k000900" in
  let proof = Pos.prove_range t ~lo ~hi in
  (* Dropped record. *)
  let dropped = { proof with Range_proof.entries = List.tl proof.Range_proof.entries } in
  Alcotest.(check bool) "dropped record rejected" false
    (Pos.verify_range_proof ~root dropped);
  (* Injected record. *)
  let injected =
    { proof with
      Range_proof.entries = ("k000500x", "evil") :: proof.Range_proof.entries }
  in
  Alcotest.(check bool) "injected record rejected" false
    (Pos.verify_range_proof ~root injected);
  (* Swapped value. *)
  let swapped =
    { proof with
      Range_proof.entries =
        (match proof.Range_proof.entries with
        | (k, _) :: rest -> (k, "forged") :: rest
        | [] -> []) }
  in
  Alcotest.(check bool) "swapped value rejected" false
    (Pos.verify_range_proof ~root swapped);
  (* Tampered node bytes. *)
  let tampered =
    { proof with
      Range_proof.nodes =
        (match proof.Range_proof.nodes with
        | n :: rest -> (n ^ "x") :: rest
        | [] -> []) }
  in
  Alcotest.(check bool) "tampered node rejected" false
    (Pos.verify_range_proof ~root tampered);
  (* Missing node. *)
  let missing =
    { proof with Range_proof.nodes = List.tl proof.Range_proof.nodes }
  in
  Alcotest.(check bool) "missing node rejected" false
    (Pos.verify_range_proof ~root missing);
  (* Wrong root. *)
  let t2 = Pos.insert t "k000450" "poke" in
  Alcotest.(check bool) "stale proof rejected" false
    (Pos.verify_range_proof ~root:(Pos.root t2) proof)

let test_range_proof_empty_tree () =
  let store = Store.create () in
  let t = Pos.empty store (Pos.config ()) in
  let proof = Pos.prove_range t ~lo:None ~hi:None in
  Alcotest.(check (list (pair string string))) "no entries" [] proof.Range_proof.entries;
  Alcotest.(check bool) "verifies" true
    (Pos.verify_range_proof ~root:(Pos.root t) proof)

let test_range_proof_is_partial () =
  (* The proof for a narrow range must be much smaller than the dataset. *)
  let store, t = pos_instance () in
  let full = Store.bytes_of_set store (Store.reachable store (Pos.root t)) in
  let proof = Pos.prove_range t ~lo:(Some "k000300") ~hi:(Some "k000420") in
  Alcotest.(check bool)
    (Printf.sprintf "proof %d << dataset %d" (Range_proof.size_bytes proof) full)
    true
    (Range_proof.size_bytes proof * 3 < full)

let () =
  Alcotest.run "range"
    [ ( "queries",
        List.concat_map
          (fun m ->
            [ Alcotest.test_case (fst m ^ " fixed cases") `Quick
                (test_range_matches_reference m);
              Alcotest.test_case (fst m ^ " empty index") `Quick
                (test_range_empty_index m);
              QCheck_alcotest.to_alcotest (qcheck_range m) ])
          makers
        @ [ Alcotest.test_case "mpt prefix boundaries" `Quick
              test_mpt_prefix_boundaries ] );
      ( "proofs",
        [ Alcotest.test_case "pos range proofs" `Quick test_pos_range_proof;
          Alcotest.test_case "mvbt range proofs" `Quick test_mvbt_range_proof;
          Alcotest.test_case "forgeries rejected" `Quick test_range_proof_rejects_forgery;
          Alcotest.test_case "empty tree" `Quick test_range_proof_empty_tree;
          Alcotest.test_case "proof is partial" `Quick test_range_proof_is_partial ] ) ]
