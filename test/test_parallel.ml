(* Parallel commit pipeline: pool semantics, batched store writes, and the
   root-determinism contract — every index must produce byte-identical
   roots at any domain count.  The suite runs under DOMAINS=1 and
   DOMAINS=4 from `make par`; the SIRI_DOMAINS override exercises the
   [Pool.recommended] env hook. *)

open Siri_core
module Store = Siri_store.Store
module Hash = Siri_crypto.Hash
module Sha256 = Siri_crypto.Sha256
module Pool = Siri_parallel.Pool
module Telemetry = Siri_telemetry.Telemetry
module Mpt = Siri_mpt.Mpt
module Mbt = Siri_mbt.Mbt
module Pos = Siri_pos.Pos_tree
module Mvbt = Siri_mvbt.Mvbt
module Prolly = Siri_prolly.Prolly
module Engine = Siri_forkbase.Engine

(* Shared pools; the registry's at_exit hook joins the workers. *)
let pool1 = Pool.create ~domains:1 ()
let pool2 = Pool.create ~domains:2 ()
let pool4 = Pool.create ~domains:4 ()

(* Deterministic dataset with unique keys (so builders that dedup
   differently on duplicates can still be compared 1:1). *)
let dataset n =
  List.init n (fun i ->
      ( Printf.sprintf "key-%08x-%d" (Hashtbl.hash (i * 2654435761)) i,
        Printf.sprintf "value-%d-%s" i (String.make (i mod 40) 'x') ))

let check_root msg a b =
  Alcotest.(check string) msg (Hash.to_hex a) (Hash.to_hex b)

(* --- pool semantics --------------------------------------------------------- *)

let test_map_order () =
  List.iter
    (fun pool ->
      let n = 257 in
      let out = Pool.map pool (fun x -> x * x) (Array.init n Fun.id) in
      Alcotest.(check (array int))
        (Printf.sprintf "squares at %d domains" (Pool.domains pool))
        (Array.init n (fun i -> i * i))
        out)
    [ Pool.sequential; pool1; pool2; pool4 ]

let test_map_empty_and_single () =
  Alcotest.(check (array int)) "empty" [||] (Pool.map pool4 succ [||]);
  Alcotest.(check (array int)) "single" [| 1 |] (Pool.map pool4 succ [| 0 |]);
  Alcotest.(check (list string))
    "map_list" [ "a!"; "b!" ]
    (Pool.map_list pool4 (fun s -> s ^ "!") [ "a"; "b" ])

let test_exception_propagation () =
  (match Pool.map pool4 (fun x -> if x = 7 then failwith "boom" else x)
           (Array.init 64 Fun.id)
   with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg -> Alcotest.(check string) "exn carried" "boom" msg);
  (* The pool must stay usable after a failed batch. *)
  let out = Pool.map pool4 succ (Array.init 16 Fun.id) in
  Alcotest.(check (array int))
    "reusable after exception"
    (Array.init 16 succ) out

let test_run_and_reuse () =
  let acc = Array.make 40 0 in
  Pool.run pool4 (Array.init 40 (fun i () -> acc.(i) <- i + 1));
  Alcotest.(check (array int)) "all tasks ran" (Array.init 40 succ) acc;
  (* Many consecutive maps on one pool: no deadlock, stable results. *)
  for round = 1 to 20 do
    let out = Pool.map pool2 (fun x -> x + round) (Array.init 33 Fun.id) in
    Alcotest.(check int) "round result" (32 + round) out.(32)
  done

let test_recommended_env () =
  Alcotest.(check bool) "at least 1" true (Pool.recommended () >= 1);
  Alcotest.(check bool) "capped" true (Pool.recommended ~cap:2 () <= 2)

(* --- crypto hot path -------------------------------------------------------- *)

let test_digest_substring_concat () =
  let s = "the quick brown fox jumps over the lazy dog" in
  for off = 0 to 8 do
    let len = String.length s - (2 * off) in
    Alcotest.(check string)
      "substring digest"
      (Sha256.to_hex (Sha256.digest_string (String.sub s off len)))
      (Sha256.to_hex (Sha256.digest_substring s ~off ~len))
  done;
  Alcotest.(check string)
    "concat digest"
    (Sha256.to_hex (Sha256.digest_string ("abc" ^ s)))
    (Sha256.to_hex (Sha256.digest_concat "abc" s))

let qcheck_digest_variants =
  QCheck.Test.make ~name:"substring/concat/quiet digests agree with oneshot"
    ~count:100
    QCheck.(pair string string)
    (fun (a, b) ->
      Hash.equal (Hash.of_string (a ^ b)) (Hash.of_concat a b)
      && Hash.equal (Hash.of_string a) (Hash.of_string_quiet a)
      && Hash.equal (Hash.of_string b)
           (Hash.of_substring (a ^ b) ~off:(String.length a)
              ~len:(String.length b)))

let test_quiet_skips_observer () =
  let seen = ref 0 in
  Hash.set_digest_observer (Some (fun n -> seen := !seen + n));
  Fun.protect
    ~finally:(fun () -> Hash.set_digest_observer None)
    (fun () ->
      ignore (Hash.of_string_quiet "silent" : Hash.t);
      Alcotest.(check int) "quiet digest unobserved" 0 !seen;
      ignore (Hash.of_string "loud!!" : Hash.t);
      Alcotest.(check int) "observed bytes" 6 !seen;
      Hash.note_digest 6;
      Alcotest.(check int) "note_digest replays" 12 !seen)

(* --- batched store writes --------------------------------------------------- *)

let stats_tuple st =
  Store.(st.puts, st.unique_nodes, st.stored_bytes, st.put_bytes)

let put_counters sink =
  List.map
    (Telemetry.counter sink)
    [ "store.put"; "store.put_bytes"; "store.put_unique";
      "store.put_unique_bytes" ]

let batch_equiv payloads =
  let a = Store.create () and b = Store.create () in
  let sa = Telemetry.create () and sb = Telemetry.create () in
  Store.set_sink a sa;
  Store.set_sink b sb;
  let seq = List.map (fun p -> Store.put a p) payloads in
  let batched = Store.put_batch b (List.map (fun p -> (p, [||])) payloads) in
  List.for_all2 Hash.equal seq batched
  && stats_tuple (Store.stats a) = stats_tuple (Store.stats b)
  && put_counters sa = put_counters sb

let test_put_batch_equiv () =
  Alcotest.(check bool) "empty batch" true (batch_equiv []);
  Alcotest.(check bool)
    "batch with duplicates" true
    (batch_equiv [ "x"; "y"; "x"; "z"; "y"; "x" ])

let qcheck_put_batch =
  QCheck.Test.make ~name:"put_batch = sequential puts (hashes, stats, meters)"
    ~count:50
    QCheck.(small_list string)
    batch_equiv

let test_staged_children () =
  let s = Store.create () in
  let leaf = Store.stage "leaf" in
  let parent =
    Store.stage ~child_offsets:[| 6 |] ("parent" ^ Hash.to_raw leaf.Store.digest)
  in
  Store.put_staged s [ leaf; parent ];
  Alcotest.(check (list string))
    "children installed"
    [ Hash.to_hex leaf.Store.digest ]
    (List.map Hash.to_hex (Store.children s parent.Store.digest));
  Alcotest.(check string) "payload installed" "leaf" (Store.get s leaf.Store.digest)

(* --- per-index root determinism --------------------------------------------- *)

(* Build the same records through the same parallel entry point at two
   widths; roots must match bit for bit. *)
type builder = (Kv.key * Kv.value) list -> ?pool:Pool.t -> unit -> Hash.t

let determinism_cases : (string * builder) list =
  [ ( "mpt",
      fun entries ?pool () ->
        Mpt.root (Mpt.of_sorted ?pool (Store.create ()) entries) );
    ( "mbt",
      fun entries ?pool () ->
        Mbt.root
          (Mbt.of_entries ?pool (Store.create ())
             (Mbt.config ~capacity:64 ~fanout:4 ())
             entries) );
    ( "pos",
      fun entries ?pool () ->
        Pos.root (Pos.of_sorted ?pool (Store.create ()) (Pos.config ()) entries)
    );
    ( "prolly",
      fun entries ?pool () ->
        Pos.root (Prolly.of_sorted ?pool (Store.create ()) entries) );
    ( "mvbt",
      fun entries ?pool () ->
        Mvbt.root
          (Mvbt.of_sorted ?pool (Store.create ()) (Mvbt.config ()) entries) )
  ]

let test_roots_domain_invariant () =
  let entries = dataset 2_000 in
  determinism_cases
  |> List.iter (fun ((name, build) : string * builder) ->
         let r1 = build entries ~pool:pool1 () in
         let r2 = build entries ~pool:pool2 () in
         let r4 = build entries ~pool:pool4 () in
         let rs = build entries ?pool:None () in
         check_root (name ^ ": 1 = 2 domains") r1 r2;
         check_root (name ^ ": 1 = 4 domains") r1 r4;
         check_root (name ^ ": pool = no pool") r1 rs)

let entries_arb =
  QCheck.(
    small_list (pair (map (fun s -> "k" ^ s) small_string) small_string))

let qcheck_roots_domain_invariant =
  QCheck.Test.make ~name:"random workloads: root at 1 domain = root at 4"
    ~count:30 entries_arb
    (fun entries ->
      determinism_cases
      |> List.for_all (fun ((_, build) : string * builder) ->
             Hash.equal
               (build entries ~pool:pool1 ())
               (build entries ~pool:pool4 ())))

let test_bulk_matches_sequential_builders () =
  let entries = dataset 1_500 in
  (* Structurally invariant indexes: the parallel bulk build must equal the
     plain insertion build exactly. *)
  check_root "mpt of_sorted = of_entries"
    (Mpt.root (Mpt.of_entries (Store.create ()) entries))
    (Mpt.root (Mpt.of_sorted ~pool:pool4 (Store.create ()) entries));
  List.iter
    (fun cfg ->
      check_root "pos of_sorted = of_entries"
        (Pos.root (Pos.of_entries (Store.create ()) cfg entries))
        (Pos.root (Pos.of_sorted ~pool:pool4 (Store.create ()) cfg entries)))
    [ Pos.config (); Pos.config_prolly () ];
  (* MVMB+-Tree is order-dependent by design: of_sorted defines its own
     canonical root, so only content equality is required here. *)
  let bulk = Mvbt.of_sorted ~pool:pool4 (Store.create ()) (Mvbt.config ()) entries in
  Alcotest.(check int)
    "mvbt content preserved"
    (List.length (List.sort_uniq compare entries))
    ((Mvbt.generic bulk).Generic.cardinal ());
  Alcotest.(check bool)
    "mvbt sorted content" true
    ((Mvbt.generic bulk).Generic.to_list () = List.sort compare entries)

let test_mbt_parallel_equals_sequential () =
  let entries = dataset 1_500 in
  let cfg = Mbt.config ~capacity:128 ~fanout:4 () in
  let sa = Store.create () and sb = Store.create () in
  let plain = Mbt.of_entries sa cfg entries in
  let pooled = Mbt.of_entries ~pool:pool4 sb cfg entries in
  check_root "mbt bulk root" (Mbt.root plain) (Mbt.root pooled);
  Alcotest.(check (pair int int))
    "mbt bulk store accounting"
    (let st = Store.stats sa in
     (st.Store.puts, st.Store.unique_nodes))
    (let st = Store.stats sb in
     (st.Store.puts, st.Store.unique_nodes));
  (* Incremental batch: level-wise parallel rebuild vs per-path fold. *)
  let ops =
    List.filteri (fun i _ -> i mod 7 = 0) entries
    |> List.map (fun (k, _) -> Kv.Put (k, "v2-" ^ k))
  in
  check_root "mbt batch root"
    (Mbt.root (Mbt.batch plain ops))
    (Mbt.root (Mbt.batch ~pool:pool4 pooled ops))

(* The parallel build must also hash exactly the same bytes as the
   sequential one — quiet worker digests are replayed one-for-one. *)
let test_hash_meter_conserved () =
  let entries = dataset 1_200 in
  let metered build =
    let sink = Telemetry.create () in
    Telemetry.attach_hash_counter sink;
    Fun.protect
      ~finally:(fun () -> Telemetry.detach_hash_counter ())
      (fun () -> ignore (build () : Hash.t));
    (Telemetry.counter sink "hash.count", Telemetry.counter sink "hash.bytes")
  in
  let cfg = Pos.config () in
  Alcotest.(check (pair int int))
    "pos hashes conserved"
    (metered (fun () -> Pos.root (Pos.of_entries (Store.create ()) cfg entries)))
    (metered (fun () ->
         Pos.root (Pos.of_sorted ~pool:pool4 (Store.create ()) cfg entries)));
  let mcfg = Mbt.config ~capacity:128 ~fanout:4 () in
  Alcotest.(check (pair int int))
    "mbt hashes conserved"
    (metered (fun () ->
         Mbt.root (Mbt.of_entries (Store.create ()) mcfg entries)))
    (metered (fun () ->
         Mbt.root (Mbt.of_entries ~pool:pool4 (Store.create ()) mcfg entries)))

(* --- engine bulk commits ----------------------------------------------------- *)

let test_engine_commit_bulk () =
  let entries = dataset 800 in
  let t =
    Engine.create
      ~empty_index:(Mpt.generic ~pool:pool4 (Mpt.empty (Store.create ())))
  in
  let c = Engine.commit_bulk t ~branch:"master" ~message:"bulk" entries in
  Alcotest.(check int) "bulk commit is version 1" 1 c.Engine.version;
  (* The committed root is the canonical bulk root. *)
  check_root "engine bulk root"
    (Mpt.root (Mpt.of_sorted (Store.create ()) entries))
    c.Engine.index_root;
  let k0, v0 = List.hd entries in
  Alcotest.(check (option string)) "bulk lookup" (Some v0)
    (Engine.get t ~branch:"master" k0);
  (* On a non-empty branch commit_bulk degrades to a put-batch: existing
     records survive. *)
  let c2 =
    Engine.commit_bulk t ~branch:"master" ~message:"more"
      [ ("zz-extra", "tail") ]
  in
  Alcotest.(check int) "second bulk is version 2" 2 c2.Engine.version;
  Alcotest.(check (option string)) "new record" (Some "tail")
    (Engine.get t ~branch:"master" "zz-extra");
  Alcotest.(check (option string)) "old record kept" (Some v0)
    (Engine.get t ~branch:"master" k0)

let () =
  Alcotest.run "parallel"
    [ ( "pool",
        [ Alcotest.test_case "map preserves order" `Quick test_map_order;
          Alcotest.test_case "edge sizes" `Quick test_map_empty_and_single;
          Alcotest.test_case "exceptions propagate" `Quick
            test_exception_propagation;
          Alcotest.test_case "run + reuse" `Quick test_run_and_reuse;
          Alcotest.test_case "recommended bounds" `Quick test_recommended_env
        ] );
      ( "crypto",
        [ Alcotest.test_case "substring/concat digests" `Quick
            test_digest_substring_concat;
          Alcotest.test_case "quiet digests skip the observer" `Quick
            test_quiet_skips_observer;
          QCheck_alcotest.to_alcotest qcheck_digest_variants ] );
      ( "store batch",
        [ Alcotest.test_case "put_batch equivalence" `Quick
            test_put_batch_equiv;
          Alcotest.test_case "staged children" `Quick test_staged_children;
          QCheck_alcotest.to_alcotest qcheck_put_batch ] );
      ( "determinism",
        [ Alcotest.test_case "roots invariant across domains" `Quick
            test_roots_domain_invariant;
          Alcotest.test_case "bulk = sequential builders" `Quick
            test_bulk_matches_sequential_builders;
          Alcotest.test_case "mbt parallel = sequential" `Quick
            test_mbt_parallel_equals_sequential;
          Alcotest.test_case "hash meters conserved" `Quick
            test_hash_meter_conserved;
          QCheck_alcotest.to_alcotest qcheck_roots_domain_invariant ] );
      ( "engine",
        [ Alcotest.test_case "commit_bulk" `Quick test_engine_commit_bulk ] )
    ]
