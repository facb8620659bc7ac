(* Golden vectors: root digests of a fixed dataset under fixed
   configurations.  These freeze the node serialization formats and every
   boundary/placement rule — any unintended change to an encoding, the
   chunker, SHA-256 or the build algorithms shows up here as a root
   mismatch, which would silently break persisted stores and published
   digests in the wild. *)

module Store = Siri_store.Store
module Hash = Siri_crypto.Hash
module Telemetry = Siri_telemetry.Telemetry
module Mpt = Siri_mpt.Mpt
module Mbt = Siri_mbt.Mbt
module Pos = Siri_pos.Pos_tree
module Mvbt = Siri_mvbt.Mvbt
module Prolly = Siri_prolly.Prolly
module Generic = Siri_core.Generic
module Proof = Siri_core.Proof
module Multiproof = Siri_core.Multiproof
module Kv = Siri_core.Kv

let entries =
  List.init 100 (fun i -> (Printf.sprintf "key-%03d" i, Printf.sprintf "value-%d" (i * i)))

let mpt_root = "9bc1a9eb1ceb85ab222fdca1f2a0cdfcd3c4d053616ac91b0b4173da0e2866bb"
let mbt_root = "adadc0c966d13469270fa881c06553998ad49c6ec8bfed50cc8752cf45d671c5"
let pos_root = "9ec66005a0652557f74b3c059fbd5cc586ad7d2fba87d3030c288cba2bc19fc8"
let mvbt_root = "a468a8bf58145876890595b2da825b7c79c2cf5a544edfbf251c880c8c9d5fd7"

let check name expected actual =
  Alcotest.(check string) (name ^ " root frozen") expected (Hash.to_hex actual)

let builders =
  [ ("mpt", mpt_root, fun store -> Mpt.root (Mpt.of_entries store entries));
    ( "mbt",
      mbt_root,
      fun store ->
        Mbt.root (Mbt.of_entries store (Mbt.config ~capacity:16 ~fanout:4 ()) entries)
    );
    ( "pos",
      pos_root,
      fun store ->
        Pos.root
          (Pos.of_entries store (Pos.config ~leaf_target:256 ~internal_bits:3 ()) entries)
    );
    ( "mvbt",
      mvbt_root,
      fun store ->
        Mvbt.root
          (Mvbt.of_entries store
             (Mvbt.config ~leaf_capacity:4 ~internal_capacity:5 ())
             entries) ) ]

let test_mpt () =
  let store = Store.create () in
  check "mpt" mpt_root (Mpt.root (Mpt.of_entries store entries))

let test_mbt () =
  let store = Store.create () in
  check "mbt" mbt_root
    (Mbt.root (Mbt.of_entries store (Mbt.config ~capacity:16 ~fanout:4 ()) entries))

let test_pos () =
  let store = Store.create () in
  check "pos" pos_root
    (Pos.root
       (Pos.of_entries store (Pos.config ~leaf_target:256 ~internal_bits:3 ()) entries))

let test_mvbt () =
  let store = Store.create () in
  check "mvbt" mvbt_root
    (Mvbt.root
       (Mvbt.of_entries store
          (Mvbt.config ~leaf_capacity:4 ~internal_capacity:5 ())
          entries))

let test_prolly () =
  (* On this small dataset the rolling internal rule happens to coincide
     with the child-hash rule (both leave a single root node over the same
     leaves), so the digest matches POS — freezing it still pins the
     By_rolling code path. *)
  let store = Store.create () in
  check "prolly" pos_root
    (Pos.root (Pos.of_entries store (Prolly.config ~node_target:256 ()) entries))

let test_instrumented_roots () =
  (* The same golden digests must come out of a fully metered build — a
     telemetry sink plus the global hash counter attached.  Instrumentation
     that leaked into a serialization or a digest would break the vectors
     here even if the plain builds above still pass. *)
  let sink = Telemetry.create () in
  Telemetry.attach_hash_counter sink;
  Fun.protect ~finally:Telemetry.detach_hash_counter (fun () ->
      List.iter
        (fun (name, expected, build) ->
          let store = Store.create () in
          Store.set_sink store sink;
          check (name ^ " (instrumented)") expected (build store))
        builders;
      Alcotest.(check bool) "the builds were actually metered" true
        (Telemetry.counter sink "store.put" > 0
        && Telemetry.counter sink "hash.count" > 0))

let test_empty_roots () =
  (* The empty tree of every keyed structure is the null digest... except
     MBT, whose empty buckets are real nodes. *)
  let store = Store.create () in
  Alcotest.(check bool) "mpt empty is null" true
    (Hash.is_null (Mpt.root (Mpt.empty store)));
  Alcotest.(check bool) "pos empty is null" true
    (Hash.is_null (Pos.root (Pos.empty store (Pos.config ()))));
  Alcotest.(check bool) "mbt empty is a concrete tree" false
    (Hash.is_null (Mbt.root (Mbt.empty store (Mbt.config ~capacity:16 ~fanout:4 ()))))

(* --- read-path pins ------------------------------------------------------

   The same dataset read back through each kind's uniform view: the bytes
   of single proofs, the Figure-9 path lengths and one inclusive range are
   frozen, so a change to any read traversal shows up here even when the
   roots above still match. *)

let probes =
  [ "key-000"; "key-042"; "key-099"; "key-05"; "key-100"; "a"; "zzz" ]

let read_views () =
  let s () = Store.create () in
  [ ("mpt", Mpt.generic (Mpt.of_entries (s ()) entries));
    ("mbt",
      Mbt.generic (Mbt.of_entries (s ()) (Mbt.config ~capacity:16 ~fanout:4 ()) entries));
    ("pos",
      Pos.generic
        (Pos.of_entries (s ()) (Pos.config ~leaf_target:256 ~internal_bits:3 ()) entries));
    ("mvbt",
      Mvbt.generic
        (Mvbt.of_entries (s ())
           (Mvbt.config ~leaf_capacity:4 ~internal_capacity:5 ())
           entries));
    ("prolly",
      Prolly.generic (Pos.of_entries (s ()) (Prolly.config ~node_target:256 ()) entries)) ]

(* SHA-256 over every probe's single-proof node bytes, in probe order. *)
let proof_digests =
  [ ("mpt", "ccefdece71e12b1ebca4e21706797d6076abd3030951b881b5612036eebc8544");
    ("mbt", "7f26d8986db151240c0077396bc1f90f85ab9998188cebf1c8e0dc276a59063a");
    ("pos", "43628cb7c43ba41834a2b6d3bf38134a6c6fd7d76ad81c846585bfe938a3986a");
    ("mvbt", "541e1f9cbfd34be1f0cb52506adc3b1b8c7e46b2483498ec0610bed3ca930bd4");
    ("prolly", "43628cb7c43ba41834a2b6d3bf38134a6c6fd7d76ad81c846585bfe938a3986a") ]

let path_lengths =
  [ ("mpt", [ 5; 5; 5; 3; 1; 1; 1 ]);
    ("mbt", [ 3; 3; 3; 3; 3; 3; 3 ]);
    ("pos", [ 2; 2; 2; 2; 1; 2; 1 ]);
    ("mvbt", [ 4; 4; 4; 4; 1; 4; 1 ]);
    ("prolly", [ 2; 2; 2; 2; 1; 2; 1 ]) ]

let test_proof_bytes () =
  List.iter
    (fun (name, g) ->
      let bytes =
        String.concat ""
          (List.concat_map (fun k -> (g.Generic.prove k).Proof.nodes) probes)
      in
      Alcotest.(check string)
        (name ^ " single-proof bytes frozen")
        (List.assoc name proof_digests)
        (Hash.to_hex (Hash.of_string bytes)))
    (read_views ())

let test_path_lengths () =
  List.iter
    (fun (name, g) ->
      let got = List.map g.Generic.path_length probes in
      Alcotest.(check (list int))
        (name ^ " path lengths frozen")
        (List.assoc name path_lengths) got)
    (read_views ())

let test_inclusive_range () =
  (* Both endpoints are stored keys, so an inclusive range holds 11. *)
  let expected =
    List.filter (fun (k, _) -> k >= "key-010" && k <= "key-020") entries
  in
  Alcotest.(check int) "model size" 11 (List.length expected);
  List.iter
    (fun (name, g) ->
      Alcotest.(check (list (pair string string)))
        (name ^ " inclusive range frozen") expected
        (g.Generic.range ~lo:(Some "key-010") ~hi:(Some "key-020")))
    (read_views ())

let test_null_root_verdict () =
  (* Every kind answers a node-less, all-absent claim against the empty
     root the same way: accepted, single and batched alike. *)
  List.iter
    (fun (name, g) ->
      let claim = ("key-042", None) in
      Alcotest.(check bool)
        (name ^ " verify against null root") true
        (g.Generic.verify ~root:Hash.null
           { Proof.key = fst claim; value = snd claim; nodes = [] });
      Alcotest.(check bool)
        (name ^ " verify_many against null root") true
        (g.Generic.verify_many ~root:Hash.null
           { Multiproof.claims = [ claim ]; nodes = [] }))
    (read_views ())

(* --- merge pins -----------------------------------------------------------

   Two fixed versions of the dataset, merged both ways and under the
   failing policy: the merged roots and the conflict keys are frozen, so
   the Section 4.1.4 union cannot drift — not in which records it writes
   and not in the order it applies them (the MVMB+-Tree's root depends on
   that order). *)

let left_ops =
  [ Kv.Put ("key-010", "left-10"); Kv.Put ("key-011", "both-11");
    Kv.Put ("key-012", "left-12"); Kv.Del "key-050"; Kv.Put ("key-200", "left-only") ]

let right_ops =
  [ Kv.Put ("key-010", "right-10"); Kv.Put ("key-011", "both-11");
    Kv.Put ("key-013", "right-13"); Kv.Del "key-060"; Kv.Put ("key-005", "right-5");
    Kv.Put ("key-150", "right-only"); Kv.Put ("a-first", "right-a") ]

(* (Prefer_left root, Prefer_right root) per kind. *)
let merge_pins =
  [ ( "mpt",
      ( "04c717718d53d549053b60edb8ca946a6948cf2aef4496c95b2d6a83e725d480",
        "75a90e69331302bb77a2ceb7d1003b3dfe03e077d867957864002776f1a696d9" ) );
    ( "mbt",
      ( "88438b9e4945e28073feb2c8ca1c26b092477bab417d8f228b1225af05f64181",
        "6fdb10fc9665210bc81c92ee756fbc3ff276a1160e4c33a6af3d1ec2d8010621" ) );
    ( "pos",
      ( "7a345ffdf0c3eb6a15c4717236a12dcea86359f84612ac4f3b2d009d02acc430",
        "20a1f6f02fcd498acf27f9157337eb7facc3928dc78e91e73fe1ec3ac6c0c51e" ) );
    ( "mvbt",
      ( "5cf8ac7b4218724ca9142372192b389b26a4335e476daf2d20ca02e03448f183",
        "7a135d3cde59646cebab32d0cdc97008d8c11c257786a70c1ff69aadbabae4ea" ) );
    ( "prolly",
      ( "7a345ffdf0c3eb6a15c4717236a12dcea86359f84612ac4f3b2d009d02acc430",
        "20a1f6f02fcd498acf27f9157337eb7facc3928dc78e91e73fe1ec3ac6c0c51e" ) ) ]

let check_merge_pins views =
  List.iter
    (fun (name, g) ->
      let left = g.Generic.batch left_ops and right = g.Generic.batch right_ops in
      let merged policy =
        match left.Generic.merge policy right.Generic.root with
        | Ok m -> Hash.to_hex m.Generic.root
        | Error _ -> Alcotest.failf "%s: merge should not conflict" name
      in
      let prefer_left = merged Kv.Prefer_left
      and prefer_right = merged Kv.Prefer_right in
      let pin_left, pin_right = List.assoc name merge_pins in
      Alcotest.(check string)
        (name ^ " merge Prefer_left root frozen") pin_left prefer_left;
      Alcotest.(check string)
        (name ^ " merge Prefer_right root frozen") pin_right prefer_right;
      let conflicts =
        match left.Generic.merge Kv.Fail_on_conflict right.Generic.root with
        | Ok _ -> Alcotest.failf "%s: merge should conflict" name
        | Error cs -> List.map (fun (c : Kv.conflict) -> c.key) cs
      in
      Alcotest.(check (list string))
        (name ^ " merge conflicts frozen")
        [ "key-005"; "key-010"; "key-012"; "key-013" ] conflicts)
    views

let test_merge_pins () = check_merge_pins (read_views ())

(* A pooled MBT instance batches level-wise on the pool, so its merge
   writes through a different path; the merged roots must not move. *)
let test_pooled_mbt_merge_pins () =
  let pool = Siri_parallel.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Siri_parallel.Pool.shutdown pool)
    (fun () ->
      check_merge_pins
        [ ( "mbt",
            Mbt.generic ~pool
              (Mbt.of_entries (Store.create ())
                 (Mbt.config ~capacity:16 ~fanout:4 ())
                 entries) ) ])

(* --- history pins -----------------------------------------------------------

   A fixed, seeded 64-batch history of puts and deletes applied through
   [batch], one root pinned per config.  The streaming rebuilder reuses
   and re-chunks against the previous version, so these pin the update
   path itself rather than the bulk build: for the structurally
   invariant configs the pin equals the bulk root of the final records,
   but for [config_non_structurally_invariant] the shape depends on the
   history and only a pin can guard it.  The [min_size > 0] config takes
   the chunker's full-feed path on every entry. *)

let history_base =
  List.init 1500 (fun i ->
      (Printf.sprintf "hkey%06d" (i * 4), Printf.sprintf "hval-%d-%d" i (i * 37 mod 101)))

let history_batches () =
  let rng = Siri_core.Rng.create 64 in
  List.init 64 (fun b ->
      List.init (Siri_core.Rng.int_in rng 1 24) (fun _ ->
          let k = Printf.sprintf "hkey%06d" (Siri_core.Rng.int rng 6400) in
          if Siri_core.Rng.int rng 4 = 0 then Kv.Del k
          else
            Kv.Put
              (k, Printf.sprintf "b%d-%s" b
                    (Siri_core.Rng.string_alnum rng (Siri_core.Rng.int_in rng 0 40)))))

let history_configs =
  [ ( "pos default",
      Pos.config (),
      "ade7891d18b33181d6d1ddaddbaebe26686463978c7ab33c7a72d2550a44b063",
      true );
    ( "prolly",
      Prolly.config ~node_target:256 (),
      "c869cb191b8908c280c1c645bce51772efbd8d7a894cee2c536223fbcac0236a",
      true );
    ( "min_size > 0",
      { (Pos.config ~leaf_target:256 ~internal_bits:3 ()) with
        Pos.leaf = Siri_chunk.Chunker.config ~pattern_bits:8 ~min_size:96 () },
      "47d94ce8f201609353afa05691955eb0aa506acbd22e8cdc88dee1a982d9500a",
      true );
    ( "non-structurally-invariant",
      Pos.config_non_structurally_invariant ~leaf_target:256 (),
      "7a71467977c0bae43ad95152909aba12b4f2f26bca7319ef3bc7a20f2f2e04c5",
      false ) ]

let test_history_pins () =
  let batches = history_batches () in
  List.iter
    (fun (name, cfg, pin, invariant) ->
      let store = Store.create () in
      let t =
        List.fold_left Pos.batch (Pos.of_entries store cfg history_base) batches
      in
      Alcotest.(check string) (name ^ " history root frozen") pin
        (Hash.to_hex (Pos.root t));
      let final =
        List.fold_left
          (fun acc ops -> Kv.apply_sorted acc (Kv.sort_ops ops))
          history_base batches
      in
      Alcotest.(check bool)
        (name ^ " history root = bulk root of the final records")
        invariant
        (Hash.equal (Pos.root t) (Pos.root (Pos.of_entries store cfg final))))
    history_configs

let () =
  Alcotest.run "golden"
    [ ( "roots",
        [ Alcotest.test_case "mpt" `Quick test_mpt;
          Alcotest.test_case "mbt" `Quick test_mbt;
          Alcotest.test_case "pos" `Quick test_pos;
          Alcotest.test_case "mvbt" `Quick test_mvbt;
          Alcotest.test_case "prolly" `Quick test_prolly;
          Alcotest.test_case "empty roots" `Quick test_empty_roots;
          Alcotest.test_case "instrumented roots" `Quick test_instrumented_roots ] );
      ( "reads",
        [ Alcotest.test_case "single-proof bytes" `Quick test_proof_bytes;
          Alcotest.test_case "path lengths" `Quick test_path_lengths;
          Alcotest.test_case "inclusive range" `Quick test_inclusive_range;
          Alcotest.test_case "null-root verdict" `Quick test_null_root_verdict ] );
      ( "merge",
        [ Alcotest.test_case "merge pins" `Quick test_merge_pins;
          Alcotest.test_case "pooled mbt merge pins" `Quick
            test_pooled_mbt_merge_pins ] );
      ( "history",
        [ Alcotest.test_case "64-batch history pins" `Quick test_history_pins ] ) ]
