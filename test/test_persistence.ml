(* Store persistence: save/load round trips, integrity, and reopening
   indexes from a loaded store. *)

module Store = Siri_store.Store
module Pos = Siri_pos.Pos_tree
module Mpt = Siri_mpt.Mpt
module Hash = Siri_crypto.Hash
module Generic = Siri_core.Generic

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("siri-test-" ^ name)

let with_file name f =
  let path = tmp name in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let entries = List.init 300 (fun i -> (Printf.sprintf "k%05d" i, Printf.sprintf "v%d" i))

let test_roundtrip () =
  with_file "roundtrip" (fun path ->
      let store = Store.create () in
      let t = Pos.of_entries store (Pos.config ~leaf_target:256 ()) entries in
      let root = Pos.root t in
      Store.save store path;
      let store' = Store.load path in
      Alcotest.(check int) "same node count"
        (Store.stats store).Store.unique_nodes
        (Store.stats store').Store.unique_nodes;
      (* Reopen the index from the loaded store: every record answers. *)
      let t' = Pos.of_root store' (Pos.config ~leaf_target:256 ()) root in
      Alcotest.(check int) "cardinal" 300 ((Pos.generic t').Generic.cardinal ());
      List.iter
        (fun (k, v) ->
          Alcotest.(check (option string)) k (Some v)
            ((Pos.generic t').Generic.lookup k))
        entries;
      (* Children metadata survives: reachability works. *)
      Alcotest.(check int) "reachable set equal"
        (Hash.Set.cardinal (Store.reachable store root))
        (Hash.Set.cardinal (Store.reachable store' root)))

let test_roundtrip_multiple_indexes () =
  with_file "multi" (fun path ->
      let store = Store.create () in
      let p = Pos.of_entries store (Pos.config ()) entries in
      let m = Mpt.of_entries store entries in
      Store.save store path;
      let store' = Store.load path in
      let p' = Pos.of_root store' (Pos.config ()) (Pos.root p) in
      let m' = Mpt.of_root store' (Mpt.root m) in
      Alcotest.(check (list (pair string string)))
        "pos records" entries ((Pos.generic p').Generic.to_list ());
      Alcotest.(check (list (pair string string)))
        "mpt records" entries ((Mpt.generic m').Generic.to_list ()))

let test_empty_store () =
  with_file "empty" (fun path ->
      let store = Store.create () in
      Store.save store path;
      let store' = Store.load path in
      Alcotest.(check int) "no nodes" 0 (Store.stats store').Store.unique_nodes)

let test_bad_magic () =
  with_file "badmagic" (fun path ->
      let oc = open_out_bin path in
      output_string oc "NOT A STORE FILE";
      close_out oc;
      match Store.load path with
      | _ -> Alcotest.fail "expected failure"
      | exception Failure msg ->
          Alcotest.(check bool) "mentions magic" true
            (String.length msg > 0))

let test_truncated () =
  with_file "trunc" (fun path ->
      let store = Store.create () in
      ignore (Store.put store (String.make 5000 'x'));
      Store.save store path;
      (* Chop the tail off. *)
      let full = In_channel.with_open_bin path In_channel.input_all in
      let oc = open_out_bin path in
      output_string oc (String.sub full 0 (String.length full - 100));
      close_out oc;
      match Store.load path with
      | _ -> Alcotest.fail "expected failure"
      | exception Failure _ -> ())

(* --- persistence under damage ----------------------------------------------- *)

let rewrite path f =
  let full = In_channel.with_open_bin path In_channel.input_all in
  let out = f full in
  let oc = open_out_bin path in
  output_string oc out;
  close_out oc

let flip_byte s pos =
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
  Bytes.to_string b

let test_flipped_payload_rejected () =
  with_file "flip" (fun path ->
      let store = Store.create () in
      ignore (Store.put store (String.make 5000 'x'));
      Store.save store path;
      (* Offset 100 lands inside the 5000-byte payload, far past the
         magic (10) + count + digest (32) + length header. *)
      rewrite path (fun s -> flip_byte s 100);
      (match Store.load path with
      | _ -> Alcotest.fail "expected rejection"
      | exception Failure msg ->
          Alcotest.(check bool) "names the corrupt node" true
            (Astring.String.is_infix ~affix:"corrupt node" msg));
      (* The typed variant folds the failure into a result. *)
      (match Store.load_checked path with
      | Error (`Malformed msg) ->
          Alcotest.(check bool) "typed error" true (String.length msg > 0)
      | Ok _ -> Alcotest.fail "expected typed rejection");
      (* Best-effort load keeps the damaged node for forensics: scrub
         reports exactly one corrupt node. *)
      match Store.load_checked ~verify:false path with
      | Error _ -> Alcotest.fail "lenient load should succeed"
      | Ok lenient ->
          let r = Store.scrub lenient in
          Alcotest.(check int) "scrub finds the damage" 1
            (List.length r.Store.corrupt))

let test_every_flip_detected () =
  (* A single-node store has no slack bytes: whatever offset is flipped —
     magic, counts, digest or payload — load must reject the file with
     Failure, never crash with anything untyped. *)
  with_file "everyflip" (fun path ->
      let store = Store.create () in
      ignore (Store.put store "the quick brown fox jumps over the lazy dog");
      Store.save store path;
      let pristine = In_channel.with_open_bin path In_channel.input_all in
      let len = String.length pristine in
      for pos = 0 to len - 1 do
        rewrite path (fun _ -> flip_byte pristine pos);
        match Store.load path with
        | _ -> Alcotest.failf "flip at %d accepted" pos
        | exception Failure _ -> ()
        | exception e ->
            Alcotest.failf "flip at %d leaked %s" pos (Printexc.to_string e)
      done)

let test_truncation_all_lengths_rejected () =
  with_file "alltrunc" (fun path ->
      let store = Store.create () in
      let a = Store.put store "some-payload-bytes" in
      ignore
        (Store.put store ~child_offsets:[| 13 |] ("a-parent-node" ^ Hash.to_raw a));
      Store.save store path;
      let pristine = In_channel.with_open_bin path In_channel.input_all in
      let len = String.length pristine in
      (* Every proper prefix must be rejected cleanly. *)
      let step = 7 in
      let pos = ref 0 in
      while !pos < len do
        rewrite path (fun _ -> String.sub pristine 0 !pos);
        (match Store.load path with
        | _ -> Alcotest.failf "prefix of %d bytes accepted" !pos
        | exception Failure _ -> ()
        | exception e ->
            Alcotest.failf "prefix of %d leaked %s" !pos (Printexc.to_string e));
        pos := !pos + step
      done)

let test_save_load_save_stable () =
  with_file "stable" (fun path ->
      with_file "stable2" (fun path2 ->
          let store = Store.create () in
          let _ = Pos.of_entries store (Pos.config ()) entries in
          Store.save store path;
          let store' = Store.load path in
          Store.save store' path2;
          (* Same nodes both times (file bytes may differ in order). *)
          let store'' = Store.load path2 in
          Alcotest.(check int) "node count stable"
            (Store.stats store).Store.unique_nodes
            (Store.stats store'').Store.unique_nodes))

let test_load_resets_counters () =
  with_file "counters" (fun path ->
      let store = Store.create () in
      ignore (Store.put store "data");
      Store.save store path;
      let store' = Store.load path in
      let st = Store.stats store' in
      Alcotest.(check int) "puts reset" 0 st.Store.puts;
      Alcotest.(check int) "gets reset" 0 st.Store.gets)

(* --- engine persistence ---------------------------------------------------- *)

module Engine = Siri_forkbase.Engine
open Siri_core

let fresh_engine () =
  Engine.create
    ~empty_index:
      (Pos.generic (Pos.empty (Store.create ()) (Pos.config ~leaf_target:256 ())))

let test_engine_roundtrip () =
  with_file "engine" (fun path ->
      let e = fresh_engine () in
      let _ =
        Engine.commit e ~branch:"master" ~message:"v1"
          (List.map (fun (k, v) -> Kv.Put (k, v)) entries)
      in
      Engine.fork e ~from:"master" "dev";
      let _ = Engine.commit e ~branch:"dev" ~message:"dev" [ Kv.Put ("dev", "1") ] in
      Engine.save e path;
      let e' =
        Engine.load
          ~empty_index:
            (Pos.generic (Pos.empty (Store.create ()) (Pos.config ~leaf_target:256 ())))
          path
      in
      Alcotest.(check (list string)) "branches" [ "dev"; "master" ] (Engine.branches e');
      Alcotest.(check (option string)) "data" (Some "v0")
        (Engine.get e' ~branch:"master" "k00000");
      Alcotest.(check (option string)) "dev-only" (Some "1")
        (Engine.get e' ~branch:"dev" "dev");
      Alcotest.(check int) "history intact" 3
        (List.length (Engine.history e' "dev"));
      (* Fully verifiable after reload. *)
      (match Engine.verify_history e' "dev" with
      | Ok n -> Alcotest.(check int) "verified commits" 3 n
      | Error _ -> Alcotest.fail "reloaded history verifies");
      (* And writable: the engine keeps working. *)
      let _ = Engine.commit e' ~branch:"master" ~message:"after" [ Kv.Put ("x", "y") ] in
      Alcotest.(check (option string)) "write after reload" (Some "y")
        (Engine.get e' ~branch:"master" "x");
      Sys.remove (path ^ ".heads"))

let test_engine_load_missing_heads () =
  with_file "noheads" (fun path ->
      let store = Store.create () in
      Store.save store path;
      match
        Engine.load
          ~empty_index:(Pos.generic (Pos.empty (Store.create ()) (Pos.config ())))
          path
      with
      | _ -> Alcotest.fail "expected failure"
      | exception Sys_error _ -> ()
      | exception Failure _ -> ())

let () =
  Alcotest.run "persistence"
    [ ( "store",
        [ Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "multiple indexes" `Quick test_roundtrip_multiple_indexes;
          Alcotest.test_case "empty store" `Quick test_empty_store;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "truncated file" `Quick test_truncated;
          Alcotest.test_case "flipped payload rejected" `Quick
            test_flipped_payload_rejected;
          Alcotest.test_case "every single-bit flip detected" `Quick
            test_every_flip_detected;
          Alcotest.test_case "every truncation rejected" `Quick
            test_truncation_all_lengths_rejected;
          Alcotest.test_case "save/load/save stable" `Quick test_save_load_save_stable;
          Alcotest.test_case "counters reset on load" `Quick test_load_resets_counters ] );
      ( "engine",
        [ Alcotest.test_case "roundtrip" `Quick test_engine_roundtrip;
          Alcotest.test_case "missing heads file" `Quick test_engine_load_missing_heads ] ) ]
