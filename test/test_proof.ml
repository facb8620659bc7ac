(* Multiproof verification locked down three ways (the ISSUE-7 centerpiece):
   a differential oracle (every claim a multiproof makes is replayed against
   the single-proof prover and [get_many]), an adversarial storm (every
   structural mutation of an honest proof must be refused — zero
   acceptances), and the wire codec (bijective round-trip, every-offset
   truncation, flip classification, and the witness-compression size
   bound). *)

open Siri_core
module Store = Siri_store.Store
module Hash = Siri_crypto.Hash
module Proof_cache = Siri_readpath.Proof_cache
module Mpt = Siri_mpt.Mpt
module Mbt = Siri_mbt.Mbt
module Pos = Siri_pos.Pos_tree
module Mvbt = Siri_mvbt.Mvbt
module Prolly = Siri_prolly.Prolly

(* Small node budgets so even modest datasets have real depth. *)
let makers () =
  [ Mpt.generic (Mpt.empty (Store.create ()));
    Mbt.generic (Mbt.empty (Store.create ()) (Mbt.config ~capacity:32 ~fanout:4 ()));
    Pos.generic (Pos.empty (Store.create ()) (Pos.config ~leaf_target:256 ()));
    Mvbt.generic
      (Mvbt.empty (Store.create ())
         (Mvbt.config ~leaf_capacity:4 ~internal_capacity:5 ()));
    Prolly.generic (Prolly.empty (Store.create ())) ]

let entries_gen =
  QCheck.Gen.(
    list_size (0 -- 60)
      (pair
         (string_size ~gen:(char_range 'a' 'f') (1 -- 5))
         (string_size (0 -- 12))))

(* Probe sets mix hits, misses, duplicates; [`Empty] and [`All] cover the
   empty-set and whole-keyspace corners the issue names explicitly. *)
let probe_gen =
  QCheck.Gen.(
    oneof
      [ return `Empty;
        return `All;
        map (fun ks -> `Keys ks)
          (list_size (0 -- 25)
             (string_size ~gen:(char_range 'a' 'g') (1 -- 5))) ])

let probe_keys probe entries =
  match probe with
  | `Empty -> []
  | `All -> List.map fst entries
  | `Keys ks -> ks @ List.filteri (fun i _ -> i mod 3 = 0) ks (* duplicates *)

let qcheck_oracle =
  QCheck.Test.make ~count:60
    ~name:"verify_many and single proofs agree with the sorted-assoc model"
    (QCheck.make
       ~print:(fun (entries, probe) ->
         Printf.sprintf "entries=%d probe=%s" (List.length entries)
           (match probe with
           | `Empty -> "empty"
           | `All -> "all"
           | `Keys ks -> String.concat "," ks))
       QCheck.Gen.(pair entries_gen probe_gen))
    (fun (entries, probe) ->
      let keys = probe_keys probe entries in
      let ops = List.map (fun (k, v) -> Kv.Put (k, v)) entries in
      (* The sorted-assoc model of the loaded records (last put wins). *)
      let model = Kv.apply_sorted [] (Kv.sort_ops ops) in
      let expected = List.map (fun k -> (k, List.assoc_opt k model)) in
      let distinct = List.sort_uniq String.compare keys in
      List.for_all
        (fun empty ->
          let inst = empty.Generic.batch ops in
          let root = inst.Generic.root in
          let mp = Generic.prove_many inst keys in
          (* 1. the batched verifier accepts the honest proof *)
          Generic.verify_many inst ~root mp
          (* 2. claims are exactly what the model holds, and get_many
                answers the same *)
          && mp.Multiproof.claims = expected distinct
          && inst.Generic.get_many distinct = expected distinct
          (* 3. every key's single proof verifies and claims the model's
                value *)
          && List.for_all
               (fun (k, v) ->
                 let p = inst.Generic.prove k in
                 inst.Generic.verify ~root p && p.Proof.value = v)
               (expected distinct))
        (makers ()))

(* --- adversarial storm ------------------------------------------------------ *)

let storm_entries =
  List.init 120 (fun i ->
      (Printf.sprintf "key%04d" (i * 7 mod 120), Printf.sprintf "value-%d" i))

let storm_keys =
  [ "key0000"; "key0007"; "key0014"; "key0021"; "absent-a"; "absent-b";
    "key0049"; "key0112" ]

let flip_storm () =
  let accepted = ref [] in
  let check label inst root mp =
    if Generic.verify_many inst ~root mp then accepted := label :: !accepted
  in
  List.iter
    (fun empty ->
      let inst =
        empty.Generic.batch
          (List.map (fun (k, v) -> Kv.Put (k, v)) storm_entries)
      in
      let name = inst.Generic.name in
      let root = inst.Generic.root in
      let mp = Generic.prove_many inst storm_keys in
      let n = List.length mp.Multiproof.nodes in
      Alcotest.(check bool)
        (name ^ ": honest proof accepted") true
        (Generic.verify_many inst ~root mp);
      (* flip one bit of every node at a spread of byte offsets *)
      for index = 0 to n - 1 do
        List.iter
          (fun pos ->
            check
              (Printf.sprintf "%s flip node=%d pos=%d" name index pos)
              inst root
              (Multiproof.flip_node mp ~index ~pos))
          [ 0; 1; 7; 31; 101; 997 ]
      done;
      (* drop every node *)
      for index = 0 to n - 1 do
        check
          (Printf.sprintf "%s drop node=%d" name index)
          inst root
          (Multiproof.drop_node mp ~index)
      done;
      (* reorder: swap every adjacent pair with distinct bytes (swapping
         byte-identical nodes is a no-op, not a tamper) *)
      let arr = Array.of_list mp.Multiproof.nodes in
      for i = 0 to n - 2 do
        if arr.(i) <> arr.(i + 1) then
          check
            (Printf.sprintf "%s swap %d %d" name i (i + 1))
            inst root
            (Multiproof.swap_nodes mp ~i ~j:(i + 1))
      done;
      (* swap claimed values: present -> altered / absent, absent -> present *)
      List.iter
        (fun (k, claimed) ->
          let forged =
            match claimed with Some v -> Some (v ^ "!") | None -> Some "forged"
          in
          check
            (Printf.sprintf "%s forge claim %s" name k)
            inst root
            (Multiproof.set_claim mp k forged);
          match claimed with
          | Some _ ->
              check
                (Printf.sprintf "%s absent claim %s" name k)
                inst root
                (Multiproof.set_claim mp k None)
          | None -> ())
        mp.Multiproof.claims;
      (* canonical tamper helper *)
      check (name ^ " tamper") inst root (Multiproof.tamper mp);
      (* sibling root substitution: the proof must not transfer to another
         version of the same index *)
      let sibling = inst.Generic.batch [ Kv.Put ("zz-sibling", "x") ] in
      check (name ^ " sibling root") inst sibling.Generic.root mp)
    (makers ());
  Alcotest.(check (list string))
    "zero acceptances across the storm" [] !accepted

(* --- wire codec ------------------------------------------------------------- *)

(* Synthetic but well-formed multiproofs: sorted distinct keys, optional
   values with deliberate repeats (exercising back-references), arbitrary
   node bytes (the codec does not interpret them). *)
let mp_gen =
  QCheck.Gen.(
    let* ks =
      map
        (List.sort_uniq String.compare)
        (list_size (0 -- 12) (string_size ~gen:(char_range 'a' 'z') (0 -- 16)))
    in
    let* vs =
      flatten_l
        (List.map
           (fun _ ->
             oneof
               [ return None;
                 map Option.some (string_size (0 -- 20));
                 return (Some "shared-value") ])
           ks)
    in
    let* nodes = list_size (0 -- 6) (string_size (0 -- 200)) in
    return { Multiproof.claims = List.combine ks vs; nodes })

let qcheck_roundtrip =
  QCheck.Test.make ~count:300 ~name:"encode/decode is a bijection"
    (QCheck.make mp_gen) (fun mp ->
      match Multiproof.decode (Multiproof.encode mp) with
      | Ok mp' -> mp' = mp
      | Error _ -> false)

let reference_multiproof () =
  match makers () with
  | pos :: _ ->
      let inst =
        pos.Generic.batch
          (List.map (fun (k, v) -> Kv.Put (k, v)) storm_entries)
      in
      Generic.prove_many inst [ "key0000"; "key0001"; "absent"; "key0119" ]
  | [] -> assert false

let every_offset_truncation () =
  let s = Multiproof.encode (reference_multiproof ()) in
  for i = 0 to String.length s - 1 do
    match Multiproof.decode (String.sub s 0 i) with
    | Error (`Malformed _) -> ()
    | Error (`Tampered _) ->
        Alcotest.failf "truncation at %d classified as tampering" i
    | Ok _ -> Alcotest.failf "truncated prefix of length %d accepted" i
  done

let every_offset_flip () =
  let s = Multiproof.encode (reference_multiproof ()) in
  let tampered = ref 0 in
  String.iteri
    (fun i _ ->
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
      match Multiproof.decode (Bytes.to_string b) with
      | Error (`Tampered _) -> incr tampered
      | Error (`Malformed _) -> ()
      | Ok _ -> Alcotest.failf "flip at byte %d accepted" i)
    s;
  (* A flip inside the checksummed region must be classified as tampering;
     only damage to the length header may read as malformed. *)
  if !tampered < String.length s - 4 then
    Alcotest.failf "only %d/%d flips detected by the checksum" !tampered
      (String.length s)

let witness_compression () =
  (* A clustered 256-key batch on a 2000-record tree: shared prefixes must
     push the encoded multiproof under half the bytes of 256 singles (the
     acceptance bound), and any overlapping set strictly under the sum. *)
  let entries =
    List.init 2000 (fun i -> (Printf.sprintf "user%06d" i, Printf.sprintf "v%d" i))
  in
  List.iter
    (fun empty ->
      let inst =
        empty.Generic.batch (List.map (fun (k, v) -> Kv.Put (k, v)) entries)
      in
      let name = inst.Generic.name in
      let keys = List.init 256 (fun i -> Printf.sprintf "user%06d" (700 + i)) in
      let mp = Generic.prove_many inst keys in
      Alcotest.(check bool)
        (name ^ ": clustered multiproof verifies") true
        (Generic.verify_many inst ~root:inst.Generic.root mp);
      let singles_bytes =
        List.fold_left
          (fun acc k -> acc + Proof.size_bytes (inst.Generic.prove k))
          0 keys
      in
      let encoded = Multiproof.encoded_size mp in
      if encoded >= singles_bytes then
        Alcotest.failf "%s: multiproof (%dB) not smaller than singles (%dB)"
          name encoded singles_bytes;
      (* the < 50%% acceptance bound, for the tree-shaped indexes (MBT
         hash-partitions keys, so clustering cannot share bucket paths) *)
      if name <> "mbt" && 2 * encoded >= singles_bytes then
        Alcotest.failf "%s: 256-key multiproof is %dB, singles %dB (>= 50%%)"
          name encoded singles_bytes)
    (makers ())

(* --- empty-index edge -------------------------------------------------------- *)

let empty_index_regression () =
  List.iter
    (fun inst ->
      let name = inst.Generic.name in
      let root = inst.Generic.root in
      let mp = Generic.prove_many inst [ "a"; "b" ] in
      Alcotest.(check bool)
        (name ^ ": empty index proves absence") true
        (List.for_all (fun (_, v) -> v = None) mp.Multiproof.claims);
      Alcotest.(check bool)
        (name ^ ": absence proof accepted") true
        (Generic.verify_many inst ~root mp);
      Alcotest.(check bool)
        (name ^ ": Some claim on empty index refused") false
        (Generic.verify_many inst ~root (Multiproof.set_claim mp "a" (Some "x")));
      (* the empty key set over the empty index *)
      let nothing = Generic.prove_many inst [] in
      Alcotest.(check bool)
        (name ^ ": empty key set accepted") true
        (Generic.verify_many inst ~root nothing))
    (makers ())

let null_root_padding_refused () =
  (* Hash-null roots (MPT/POS/MVMB+): no node can justify anything, so a
     padded node list must be refused even with all-None claims. *)
  List.iter
    (fun inst ->
      if Hash.is_null inst.Generic.root then
        let mp =
          { Multiproof.claims = [ ("a", None) ]; nodes = [ "junk-node" ] }
        in
        Alcotest.(check bool)
          (inst.Generic.name ^ ": padded empty-index proof refused") false
          (Generic.verify_many inst ~root:inst.Generic.root mp))
    (makers ())

(* --- proof cache ------------------------------------------------------------- *)

let cache_roundtrip () =
  let store = Store.create ~proof_cache_bytes:(1 lsl 20) () in
  let pc = Store.proof_cache store in
  let inst =
    Generic.of_entries
      (Pos.generic (Pos.empty store (Pos.config ~leaf_target:256 ())))
      storm_entries
  in
  let mp1 = Generic.prove_many inst storm_keys in
  let misses = Proof_cache.misses pc in
  let mp2 = Generic.prove_many inst storm_keys in
  Alcotest.(check bool) "cached result identical" true (mp1 = mp2);
  Alcotest.(check int) "second request hits" 1 (Proof_cache.hits pc);
  Alcotest.(check int) "no second miss" misses (Proof_cache.misses pc);
  (* key-set order and duplicates do not defeat the cache key *)
  let mp3 = Generic.prove_many inst (List.rev storm_keys @ storm_keys) in
  Alcotest.(check bool) "permuted key set hits" true (mp3 = mp1);
  Alcotest.(check int) "permuted request hit" 2 (Proof_cache.hits pc);
  (* tampering with the store must clear the cache wholesale *)
  let victim =
    match Multiproof.root_hash mp1 with Some h -> h | None -> assert false
  in
  Store.corrupt store victim;
  Alcotest.(check int) "tamper clears the proof cache" 0 (Proof_cache.size pc)

let cache_disabled_by_default () =
  (* budget 0 pins the cache off even when SIRI_PROOF_CACHE is exported
     (make proof runs this suite both ways) *)
  let store = Store.create ~proof_cache_bytes:0 () in
  let pc = Store.proof_cache store in
  let inst =
    Generic.of_entries
      (Pos.generic (Pos.empty store (Pos.config ~leaf_target:256 ())))
      storm_entries
  in
  let mp1 = Generic.prove_many inst storm_keys in
  let mp2 = Generic.prove_many inst storm_keys in
  Alcotest.(check bool) "results still equal" true (mp1 = mp2);
  Alcotest.(check bool) "cache disabled" false (Proof_cache.enabled pc);
  Alcotest.(check int) "no hits metered" 0 (Proof_cache.hits pc)

let () =
  Alcotest.run "proof"
    [ ("oracle", [ QCheck_alcotest.to_alcotest qcheck_oracle ]);
      ("adversarial", [ Alcotest.test_case "flip storm" `Quick flip_storm ]);
      ( "wire",
        [ QCheck_alcotest.to_alcotest qcheck_roundtrip;
          Alcotest.test_case "every-offset truncation" `Quick
            every_offset_truncation;
          Alcotest.test_case "every-offset flip" `Quick every_offset_flip;
          Alcotest.test_case "witness compression" `Slow witness_compression ] );
      ( "empty index",
        [ Alcotest.test_case "absence with no nodes" `Quick
            empty_index_regression;
          Alcotest.test_case "padded null-root refused" `Quick
            null_root_padding_refused ] );
      ( "cache",
        [ Alcotest.test_case "hit / permutation / invalidation" `Quick
            cache_roundtrip;
          Alcotest.test_case "disabled by default" `Quick
            cache_disabled_by_default ] ) ]
