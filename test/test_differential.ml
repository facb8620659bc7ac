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

(* --- child offsets --------------------------------------------------------------- *)

module Wire = Siri_codec.Wire
module Hash = Siri_crypto.Hash
module Engine = Siri_forkbase.Engine
module Pack = Siri_pack.Pack

(* The children a node names, read from its bytes by the kind's own node
   layout: the split-key parser for POS-Tree, Prolly and MVMB+-Tree, and
   the MPT, MBT and commit-object layouts decoded here.  Null hashes are
   dropped, as the store's walks skip them. *)
let decoded_children kind bytes =
  let r = Wire.Reader.of_string bytes in
  let hashes =
    match kind with
    | "commit" ->
        assert (Wire.Reader.u8 r = 0xC0);
        let parent = Wire.Reader.hash r in
        let index_root = Wire.Reader.hash r in
        [ index_root; parent ]
    | "mpt" -> (
        match Wire.Reader.u8 r with
        | 0 -> []
        | 1 ->
            ignore (Wire.Reader.str r : string);
            [ Wire.Reader.hash r ]
        | _ ->
            let bitmap = Wire.Reader.u16 r in
            List.filter_map
              (fun i -> if bitmap land (1 lsl i) <> 0 then Some (Wire.Reader.hash r) else None)
              (List.init 16 Fun.id))
    | "mbt" -> (
        match Wire.Reader.u8 r with
        | 0 -> []
        | _ -> List.init (Wire.Reader.varint r) (fun _ -> Wire.Reader.hash r))
    | _ ->
        let v = Split_key.parse ~salted:(kind <> "mvmb+-tree") bytes in
        if Split_key.is_leaf v then []
        else List.init (Split_key.count v) (Split_key.child v)
  in
  List.filter (fun h -> not (Hash.is_null h)) hashes

(* [Store.children] of node [h] must be exactly the children its layout
   names; returns those. *)
let check_node kind store h =
  let expected = decoded_children kind (Store.get store h) in
  let got = List.filter (fun h -> not (Hash.is_null h)) (Store.children store h) in
  if not (List.equal Hash.equal expected got) then
    QCheck.Test.fail_reportf "%s node %s: Store.children names %d children, the layout %d"
      kind (Hash.short h) (List.length got) (List.length expected);
  expected

(* [check_node] over every node reachable from an index root by the
   layout's own children. *)
let check_tree kind store root =
  let seen = ref Hash.Set.empty in
  let rec go h =
    if not (Hash.is_null h || Hash.Set.mem h !seen) then begin
      seen := Hash.Set.add h !seen;
      List.iter go (check_node kind store h)
    end
  in
  go root

let kinds_in store =
  [ Mpt.generic (Mpt.empty store);
    Mbt.generic (Mbt.empty store (Mbt.config ~capacity:32 ~fanout:4 ()));
    Pos.generic (Pos.empty store (Pos.config ~leaf_target:256 ()));
    Mvbt.generic (Mvbt.empty store (Mvbt.config ~leaf_capacity:4 ~internal_capacity:5 ()));
    Prolly.generic (Prolly.empty store) ]

(* An engine per kind takes a bulk commit and then the op stream in
   incremental commits; every commit object and every index node of every
   version must name, through [Store.children], the children its layout
   names. *)
let children_agree ~new_store ops =
  List.for_all
    (fun i ->
      let store = new_store () in
      let empty = List.nth (kinds_in store) i in
      let kind = empty.Generic.name in
      let engine = Engine.create ~empty_index:empty in
      let entries =
        List.filter_map (function Kv.Put (k, v) -> Some (k, v) | Kv.Del _ -> None) ops
      in
      ignore (Engine.commit_bulk engine ~branch:"master" ~message:"bulk" entries);
      let rec chunks = function
        | [] -> []
        | ops ->
            let n = min 7 (List.length ops) in
            List.filteri (fun j _ -> j < n) ops :: chunks (List.filteri (fun j _ -> j >= n) ops)
      in
      List.iter
        (fun c -> ignore (Engine.commit engine ~branch:"master" ~message:"inc" c))
        (chunks ops);
      List.iter
        (fun (c : Engine.commit) ->
          ignore (check_node "commit" store c.id : Hash.t list);
          check_tree kind store c.index_root)
        (Engine.history engine "master");
      true)
    (List.init (List.length (kinds_in (Store.create ()))) Fun.id)

let qcheck_children_from_offsets =
  QCheck.Test.make ~name:"Store.children = the layout's children, every kind" ~count:40
    (QCheck.make op_gen) (children_agree ~new_store:Store.create)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* The same on a pack-backed store, where the children come back from
   the record heads' offsets, over a larger op stream. *)
let test_children_from_pack () =
  let rng = Rng.create 77 in
  let ops =
    List.init 600 (fun i ->
        let k = Printf.sprintf "k%04d" (Rng.int rng 400) in
        if i mod 5 = 4 then Kv.Del k else Kv.Put (k, Rng.string_alnum rng 12))
  in
  let dirs = ref [] in
  let packs = ref [] in
  let new_store () =
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "siri-children-%d-%d" (Unix.getpid ()) (List.length !dirs))
    in
    rm_rf dir;
    dirs := dir :: !dirs;
    match Pack.open_ dir with
    | Ok (p, _) ->
        packs := p :: !packs;
        let store = Store.create () in
        Pack.attach p store;
        store
    | Error (`Tampered msg) -> Alcotest.failf "Pack.open_: %s" msg
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Pack.close !packs;
      List.iter rm_rf !dirs)
    (fun () ->
      Alcotest.(check bool) "children agree on the pack" true
        (children_agree ~new_store ops))

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
          QCheck_alcotest.to_alcotest qcheck_garbage_range_proofs_rejected ] );
      ( "child offsets",
        [ QCheck_alcotest.to_alcotest qcheck_children_from_offsets;
          Alcotest.test_case "children from a pack's record heads" `Quick
            test_children_from_pack ] ) ]
