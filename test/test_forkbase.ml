(* Forkbase-like engine: branches, commits, history, checkout, merge; and
   the remote-deployment simulation (its node cache is covered by
   test_lru). *)

open Siri_core
module Store = Siri_store.Store
module Engine = Siri_forkbase.Engine
module Remote = Siri_forkbase.Remote
module Pos = Siri_pos.Pos_tree
module Hash = Siri_crypto.Hash

let fresh_engine () =
  let store = Store.create () in
  let cfg = Pos.config ~leaf_target:256 () in
  Engine.create ~empty_index:(Pos.generic (Pos.empty store cfg))

(* --- engine -------------------------------------------------------------------- *)

let test_commit_and_get () =
  let e = fresh_engine () in
  let c1 = Engine.commit e ~branch:"master" ~message:"first" [ Kv.Put ("a", "1") ] in
  Alcotest.(check int) "version 1" 1 c1.Engine.version;
  Alcotest.(check (option string)) "get" (Some "1") (Engine.get e ~branch:"master" "a");
  let _ = Engine.put e ~branch:"master" "b" "2" in
  Alcotest.(check (option string)) "get b" (Some "2") (Engine.get e ~branch:"master" "b")

let test_history_and_checkout () =
  let e = fresh_engine () in
  let c1 = Engine.commit e ~branch:"master" ~message:"v1" [ Kv.Put ("k", "v1") ] in
  let _c2 = Engine.commit e ~branch:"master" ~message:"v2" [ Kv.Put ("k", "v2") ] in
  let hist = Engine.history e "master" in
  Alcotest.(check int) "3 commits (incl. initial)" 3 (List.length hist);
  Alcotest.(check string) "head message" "v2" (List.hd hist).Engine.message;
  (* Checkout the old commit: it still answers v1. *)
  let old = Engine.checkout e c1.Engine.id in
  Alcotest.(check (option string)) "old version" (Some "v1") (old.Generic.lookup "k");
  Alcotest.(check (option string)) "head version" (Some "v2")
    (Engine.get e ~branch:"master" "k")

let test_fork_and_isolation () =
  let e = fresh_engine () in
  let _ = Engine.commit e ~branch:"master" ~message:"base" [ Kv.Put ("shared", "s") ] in
  Engine.fork e ~from:"master" "feature";
  let _ = Engine.commit e ~branch:"feature" ~message:"f" [ Kv.Put ("f-only", "1") ] in
  Alcotest.(check (option string)) "feature sees base" (Some "s")
    (Engine.get e ~branch:"feature" "shared");
  Alcotest.(check (option string)) "master blind to feature" None
    (Engine.get e ~branch:"master" "f-only");
  Alcotest.(check (list string)) "branch list" [ "feature"; "master" ] (Engine.branches e)

let test_fork_validation () =
  let e = fresh_engine () in
  Alcotest.check_raises "duplicate branch"
    (Invalid_argument "Engine.fork: branch \"master\" exists") (fun () ->
      Engine.fork e ~from:"master" "master");
  Alcotest.check_raises "unknown source"
    (Invalid_argument "Engine: no branch \"nope\"") (fun () ->
      Engine.fork e ~from:"nope" "x")

let test_diff_and_merge_branches () =
  let e = fresh_engine () in
  let _ = Engine.commit e ~branch:"master" ~message:"base"
      [ Kv.Put ("a", "1"); Kv.Put ("b", "2") ] in
  Engine.fork e ~from:"master" "side";
  let _ = Engine.commit e ~branch:"side" ~message:"side" [ Kv.Put ("c", "3") ] in
  let _ = Engine.commit e ~branch:"master" ~message:"m" [ Kv.Put ("a", "11") ] in
  let d = Engine.diff_branches e "master" "side" in
  Alcotest.(check int) "two differences" 2 (List.length d);
  (match Engine.merge_branches e ~into:"master" ~from:"side" ~policy:Kv.Prefer_left with
  | Error _ -> Alcotest.fail "merge should succeed"
  | Ok c ->
      Alcotest.(check bool) "merge commit message" true
        (String.length c.Engine.message > 0));
  Alcotest.(check (option string)) "kept master a" (Some "11")
    (Engine.get e ~branch:"master" "a");
  Alcotest.(check (option string)) "gained side c" (Some "3")
    (Engine.get e ~branch:"master" "c")

let test_merge_conflict_policy () =
  let e = fresh_engine () in
  let _ = Engine.commit e ~branch:"master" ~message:"b" [ Kv.Put ("k", "base") ] in
  Engine.fork e ~from:"master" "other";
  let _ = Engine.commit e ~branch:"other" ~message:"o" [ Kv.Put ("k", "theirs") ] in
  let _ = Engine.commit e ~branch:"master" ~message:"m" [ Kv.Put ("k", "ours") ] in
  (match Engine.merge_branches e ~into:"master" ~from:"other" ~policy:Kv.Fail_on_conflict with
  | Ok _ -> Alcotest.fail "expected conflict"
  | Error [ c ] -> Alcotest.(check string) "key" "k" c.Kv.key
  | Error _ -> Alcotest.fail "one conflict expected");
  match Engine.merge_branches e ~into:"master" ~from:"other" ~policy:Kv.Prefer_right with
  | Error _ -> Alcotest.fail "policy resolves"
  | Ok _ ->
      Alcotest.(check (option string)) "theirs wins" (Some "theirs")
        (Engine.get e ~branch:"master" "k")

let test_dedup_across_branches () =
  let e = fresh_engine () in
  let entries = List.init 500 (fun i -> Kv.Put (Printf.sprintf "k%05d" i, "v")) in
  let _ = Engine.commit e ~branch:"master" ~message:"bulk" entries in
  Engine.fork e ~from:"master" "twin";
  let _ = Engine.commit e ~branch:"twin" ~message:"tiny" [ Kv.Put ("k00000", "x") ] in
  let eta = Engine.dedup_ratio e in
  Alcotest.(check bool) (Printf.sprintf "eta %.2f high" eta) true (eta > 0.4)

let test_gc_preserves_history () =
  let e = fresh_engine () in
  let store = Engine.store e in
  let _ = Engine.commit e ~branch:"master" ~message:"v1" [ Kv.Put ("a", "1") ] in
  let c2 = Engine.commit e ~branch:"master" ~message:"v2" [ Kv.Put ("b", "2") ] in
  ignore (Store.put store "unreachable garbage");
  let reclaimed = Store.gc store ~roots:[ c2.Engine.id ] in
  Alcotest.(check bool) "collected something" true (reclaimed >= 1);
  (* Full history still reachable through commit parents. *)
  let hist = Engine.history e "master" in
  Alcotest.(check int) "history intact" 3 (List.length hist);
  Alcotest.(check (option string)) "data intact" (Some "1")
    (Engine.get e ~branch:"master" "a")

(* --- remote simulation ------------------------------------------------------------ *)

let test_remote_accounting () =
  let store = Store.create () in
  let cfg = Pos.config ~leaf_target:256 () in
  let t = Pos.of_entries store cfg
      (List.init 300 (fun i -> (Printf.sprintf "k%05d" i, String.make 50 'v'))) in
  let remote = Remote.attach store ~cache_nodes:10_000 Remote.gigabit_lan in
  (* First read: misses, pays network. *)
  ignore ((Pos.generic t).Generic.lookup "k00042");
  let misses1 = Remote.misses remote in
  let sim1 = Remote.simulated_seconds remote in
  Alcotest.(check bool) "paid misses" true (misses1 > 0 && sim1 > 0.0);
  (* Same read again: all nodes cached. *)
  ignore ((Pos.generic t).Generic.lookup "k00042");
  Alcotest.(check int) "no new misses" misses1 (Remote.misses remote);
  Alcotest.(check bool) "hits recorded" true (Remote.hits remote > 0);
  Remote.detach store remote

let test_remote_no_cache () =
  let store = Store.create () in
  let cfg = Pos.config ~leaf_target:256 () in
  let t = Pos.of_entries store cfg
      (List.init 300 (fun i -> (Printf.sprintf "k%05d" i, String.make 50 'v'))) in
  let remote = Remote.attach store Remote.http_overhead in
  ignore ((Pos.generic t).Generic.lookup "k00042");
  let m1 = Remote.misses remote in
  ignore ((Pos.generic t).Generic.lookup "k00042");
  Alcotest.(check int) "every read misses" (2 * m1) (Remote.misses remote);
  Alcotest.(check int) "no hits" 0 (Remote.hits remote);
  Remote.detach store remote

let test_remote_reset () =
  let store = Store.create () in
  let remote = Remote.attach store ~cache_nodes:10 Remote.gigabit_lan in
  let hsh = Store.put store "x" in
  ignore (Store.get store hsh);
  Remote.reset remote;
  Alcotest.(check int) "misses reset" 0 (Remote.misses remote);
  Alcotest.(check (float 1e-12)) "time reset" 0.0 (Remote.simulated_seconds remote);
  Remote.detach store remote

let () =
  Alcotest.run "forkbase"
    [ ( "engine",
        [ Alcotest.test_case "commit/get" `Quick test_commit_and_get;
          Alcotest.test_case "history & checkout" `Quick test_history_and_checkout;
          Alcotest.test_case "fork isolation" `Quick test_fork_and_isolation;
          Alcotest.test_case "fork validation" `Quick test_fork_validation;
          Alcotest.test_case "diff & merge branches" `Quick test_diff_and_merge_branches;
          Alcotest.test_case "merge conflict policy" `Quick test_merge_conflict_policy;
          Alcotest.test_case "dedup across branches" `Quick test_dedup_across_branches;
          Alcotest.test_case "gc preserves history" `Quick test_gc_preserves_history ] );
      ( "remote",
        [ Alcotest.test_case "cache accounting" `Quick test_remote_accounting;
          Alcotest.test_case "no-cache mode" `Quick test_remote_no_cache;
          Alcotest.test_case "reset" `Quick test_remote_reset ] ) ]
