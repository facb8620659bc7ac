(* Chaos differential suite: run the index workloads over a store with a
   seeded fault plan injecting bit flips, truncations, drops, transient
   failures and latency, and assert that every operation either returns the
   oracle answer or a typed error — never an untyped crash — and that
   Store.scrub reports exactly the injected corruptions. *)

open Siri_core
module Store = Siri_store.Store
module Fault = Siri_fault.Fault
module Hash = Siri_crypto.Hash
module Remote = Siri_forkbase.Remote
module Engine = Siri_forkbase.Engine
module Pos = Siri_pos.Pos_tree

let makers =
  [ ("mpt", fun () -> Siri_mpt.Mpt.generic (Siri_mpt.Mpt.empty (Store.create ())));
    ( "mbt",
      fun () ->
        Siri_mbt.Mbt.generic
          (Siri_mbt.Mbt.empty (Store.create ())
             (Siri_mbt.Mbt.config ~capacity:32 ~fanout:4 ())) );
    ( "pos",
      fun () ->
        Pos.generic (Pos.empty (Store.create ()) (Pos.config ~leaf_target:64 ())) );
    ( "mvbt",
      fun () ->
        Siri_mvbt.Mvbt.generic
          (Siri_mvbt.Mvbt.empty (Store.create ())
             (Siri_mvbt.Mvbt.config ~leaf_capacity:4 ~internal_capacity:5 ())) ) ]

let entries = Index_suite.rng_entries (Rng.create 2024) 400
let absent_keys = List.init 20 (fun i -> Printf.sprintf "zz-chaos-absent-%02d" i)
let oracle = Hashtbl.create 512
let () = List.iter (fun (k, v) -> Hashtbl.replace oracle k v) entries

(* Copy every node of [store] into a fresh pristine store (for repair). *)
let replicate store =
  let replica = Store.create () in
  Store.iter_nodes store (fun bytes child_offsets ->
      ignore (Store.put replica ~child_offsets bytes));
  replica

let typed_or_fail name k = function
  | Error (`Tampered _ | `Missing _ | `Transient _) -> 1
  | Error (`Malformed msg) ->
      Alcotest.failf "%s: untyped exception leaked for %S: %s" name k msg
  | Ok _ -> 0

(* The acceptance property: under an armed fault plan with >= 3 fault
   kinds, every lookup is oracle-correct or a typed error. *)
let chaos_case (name, mk) () =
  let inst = Generic.of_entries (mk ()) entries in
  let store = inst.Generic.store in
  let replica = replicate store in
  let plan =
    Fault.plan ~bit_flip:0.04 ~truncate:0.03 ~drop:0.06 ~transient:0.05
      ~latency_s:1e-6 ~seed:42 ()
  in
  let armed = Fault.arm plan store in
  (* The plan actually injected the three persistent/read fault kinds. *)
  Alcotest.(check bool) "some corruption injected" true (Fault.corrupted armed <> []);
  Alcotest.(check bool) "some drops injected" true (Fault.dropped armed <> []);
  let errors = ref 0 in
  let check_key k =
    match Fault.protect (fun () -> inst.Generic.lookup k) with
    | Ok v ->
        Alcotest.(check (option string))
          (Printf.sprintf "%s oracle answer for %s" name k)
          (Hashtbl.find_opt oracle k) v
    | other -> errors := !errors + typed_or_fail name k other
  in
  List.iter (fun (k, _) -> check_key k) entries;
  List.iter check_key absent_keys;
  (* Bulk operations degrade the same way. *)
  (match Fault.protect (fun () -> inst.Generic.to_list ()) with
  | Ok l ->
      Alcotest.(check int)
        (name ^ " to_list oracle")
        (List.length entries) (List.length l)
  | other -> errors := !errors + typed_or_fail name "<to_list>" other);
  Alcotest.(check bool) (name ^ " faults actually fired") true (!errors > 0);
  Alcotest.(check bool)
    (name ^ " transient faults fired")
    true
    (Fault.injected_transients armed > 0);
  Alcotest.(check bool)
    (name ^ " latency accounted")
    true
    (Fault.simulated_latency armed > 0.);
  (* Scrub finds exactly the injected corruptions. *)
  Fault.disarm armed;
  let report = Store.scrub store in
  Alcotest.(check (list string))
    (name ^ " scrub reports exactly the injected corruptions")
    (List.map Hash.to_hex (Fault.corrupted armed))
    (List.map Hash.to_hex report.Store.corrupt);
  (* Repair from the pristine replica heals the store completely. *)
  let grafted = Store.repair store ~replica in
  Alcotest.(check bool)
    (name ^ " repair grafted at least the quarantined nodes")
    true
    (grafted >= List.length (Fault.corrupted armed));
  let after = Store.scrub store in
  Alcotest.(check int) (name ^ " clean after repair: corrupt") 0
    (List.length after.Store.corrupt);
  Alcotest.(check int) (name ^ " clean after repair: dangling") 0
    (List.length after.Store.dangling);
  (* And the index answers the full oracle again. *)
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option string)) (name ^ " healed " ^ k) (Some v)
        (inst.Generic.lookup k))
    entries

(* Determinism: the same plan armed on the same content selects the same
   victims. *)
let test_arm_deterministic () =
  let victims () =
    let inst = Generic.of_entries ((List.assoc "pos" makers) ()) entries in
    let armed =
      Fault.arm (Fault.plan ~bit_flip:0.05 ~drop:0.05 ~seed:7 ()) inst.Generic.store
    in
    Fault.disarm armed;
    (List.map Hash.to_hex (Fault.corrupted armed),
     List.map Hash.to_hex (Fault.dropped armed))
  in
  let c1, d1 = victims () and c2, d2 = victims () in
  Alcotest.(check (list string)) "same corrupted" c1 c2;
  Alcotest.(check (list string)) "same dropped" d1 d2

(* Transient-only faults: bounded retries recover every answer. *)
let test_retries_absorb_transients () =
  let inst = Generic.of_entries ((List.assoc "pos" makers) ()) entries in
  let armed =
    Fault.arm (Fault.plan ~transient:0.05 ~seed:11 ()) inst.Generic.store
  in
  List.iter
    (fun (k, v) ->
      match Fault.retrying ~attempts:10 (fun () -> inst.Generic.lookup k) with
      | Ok got -> Alcotest.(check (option string)) k (Some v) got
      | Error e -> Alcotest.failf "retry did not absorb transient: %s" (Fault.error_to_string e))
    entries;
  Alcotest.(check bool) "transients were injected" true
    (Fault.injected_transients armed > 0);
  Fault.disarm armed

(* Verified accessors return typed errors over a damaged (un-armed) store. *)
let test_checked_accessors () =
  let s = Store.create () in
  let a = Store.put s "leaf-a" in
  let b = Store.put s "leaf-b" in
  (* "parent", then the hashes of [a] and [b] *)
  let parent = "parent" ^ Hash.to_raw a ^ Hash.to_raw b in
  let p = Store.put s ~child_offsets:[| 6; 6 + Hash.size |] parent in
  (match Fault.get_checked s p with
  | Ok bytes -> Alcotest.(check string) "verified payload" parent bytes
  | Error e -> Alcotest.failf "unexpected: %s" (Fault.error_to_string e));
  Store.corrupt s a;
  (match Fault.get_checked s a with
  | Error (`Tampered h) -> Alcotest.(check bool) "names hash" true (Hash.equal h a)
  | _ -> Alcotest.fail "tampering undetected");
  let ghost = Hash.of_string "never stored" in
  (match Fault.get_checked s ghost with
  | Error (`Missing h) -> Alcotest.(check bool) "names ghost" true (Hash.equal h ghost)
  | _ -> Alcotest.fail "missing undetected");
  match Fault.children_checked s p with
  | Ok cs -> Alcotest.(check int) "children" 2 (List.length cs)
  | Error e -> Alcotest.failf "unexpected: %s" (Fault.error_to_string e)

(* Engine over a faulty store: transient fetches are retried, residual
   faults surface as typed errors, the engine never aborts. *)
let test_engine_degrades_gracefully () =
  let engine =
    Engine.create
      ~empty_index:
        (Pos.generic (Pos.empty (Store.create ()) (Pos.config ~leaf_target:256 ())))
  in
  let _ =
    Engine.commit engine ~branch:"master" ~message:"seed"
      (List.map (fun (k, v) -> Kv.Put (k, v)) entries)
  in
  let store = Engine.store engine in
  (* Transient-only plan: checked reads recover every answer. *)
  let armed = Fault.arm (Fault.plan ~transient:0.05 ~seed:3 ()) store in
  List.iter
    (fun (k, v) ->
      match Engine.get_checked ~attempts:10 engine ~branch:"master" k with
      | Ok got -> Alcotest.(check (option string)) k (Some v) got
      | Error e ->
          Alcotest.failf "engine did not absorb transient: %s"
            (Fault.error_to_string e))
    (List.filteri (fun i _ -> i mod 7 = 0) entries);
  (match Engine.history_checked ~attempts:10 engine "master" with
  | Ok commits -> Alcotest.(check int) "history length" 2 (List.length commits)
  | Error e -> Alcotest.failf "history_checked: %s" (Fault.error_to_string e));
  Fault.disarm armed;
  (* Physically lose index nodes: every read is the oracle answer or a
     typed error, and at least one key is actually affected. *)
  let root = (Engine.head engine "master").Engine.index_root in
  let victims =
    Hash.Set.elements (Store.reachable store root)
    |> List.filter (fun h -> not (Hash.equal h root))
    |> List.filteri (fun i _ -> i mod 3 = 0)
  in
  Alcotest.(check bool) "victims chosen" true (victims <> []);
  List.iter (fun h -> ignore (Store.remove_node store h)) victims;
  let affected = ref 0 in
  List.iter
    (fun (k, v) ->
      match Engine.get_checked engine ~branch:"master" k with
      | Ok got -> Alcotest.(check (option string)) k (Some v) got
      | Error (`Missing _ | `Tampered _ | `Transient _) -> incr affected
      | Error (`Malformed msg) -> Alcotest.failf "untyped leak: %s" msg)
    entries;
  Alcotest.(check bool) "some keys affected by lost nodes" true (!affected > 0)

(* Remote simulation: a flaky link costs retries and simulated seconds. *)
let test_remote_flaky_link () =
  let run ~failure_rate =
    let store = Store.create () in
    let t = Pos.of_entries store (Pos.config ~leaf_target:256 ()) entries in
    let remote = Remote.attach store ~failure_rate ~seed:5 Remote.gigabit_lan in
    List.iter (fun (k, _) -> ignore ((Pos.generic t).Generic.lookup k)) entries;
    let sim = Remote.simulated_seconds remote in
    let retries = Remote.retries remote in
    Remote.detach store remote;
    (sim, retries)
  in
  let sim0, retries0 = run ~failure_rate:0. in
  let sim3, retries3 = run ~failure_rate:0.3 in
  Alcotest.(check int) "no retries on a clean link" 0 retries0;
  Alcotest.(check bool) "flaky link retries" true (retries3 > 0);
  Alcotest.(check bool) "retries cost simulated time" true (sim3 > sim0);
  (* Determinism: the same seed reproduces the run exactly. *)
  let sim3', retries3' = run ~failure_rate:0.3 in
  Alcotest.(check int) "deterministic retries" retries3 retries3';
  Alcotest.(check (float 1e-12)) "deterministic sim time" sim3 sim3'

let () =
  Alcotest.run "fault"
    [ ( "chaos differential",
        List.map
          (fun (name, mk) ->
            Alcotest.test_case
              (Printf.sprintf "%s under seeded faults" name)
              `Quick
              (chaos_case (name, mk)))
          makers );
      ( "plans",
        [ Alcotest.test_case "arm is deterministic" `Quick test_arm_deterministic;
          Alcotest.test_case "retries absorb transients" `Quick
            test_retries_absorb_transients ] );
      ( "checked accessors",
        [ Alcotest.test_case "get/children checked" `Quick test_checked_accessors ] );
      ( "engine",
        [ Alcotest.test_case "graceful degradation" `Quick
            test_engine_degrades_gracefully ] );
      ( "remote",
        [ Alcotest.test_case "flaky link retries" `Quick test_remote_flaky_link ] ) ]
