(* Crash-consistent durability: torn-write crash simulation over the
   write-ahead commit journal.

   The oracle is exact-prefix recovery: run a scripted multi-branch
   workload through [Durable], snapshot the full engine state (branch
   set, head commit ids, index roots) after every journal record, then
   truncate the journal at EVERY byte offset, reopen, and assert the
   recovered state equals the snapshot after exactly the records that
   fit in the truncated prefix.  Mid-journal bit flips must surface as
   typed errors — never exceptions — or recover to some exact prefix. *)

open Siri_core
module Store = Siri_store.Store
module Io = Siri_io.Io
module Hash = Siri_crypto.Hash
module Engine = Siri_forkbase.Engine
module Wal = Siri_wal.Wal
module Durable = Siri_wal.Durable
module Fault = Siri_fault.Fault
module Telemetry = Siri_telemetry.Telemetry
module Pos = Siri_pos.Pos_tree

let makers =
  [ ("mpt", fun () -> Siri_mpt.Mpt.generic (Siri_mpt.Mpt.empty (Store.create ())));
    ( "mbt",
      fun () ->
        Siri_mbt.Mbt.generic
          (Siri_mbt.Mbt.empty (Store.create ())
             (Siri_mbt.Mbt.config ~capacity:16 ~fanout:4 ())) );
    ( "pos",
      fun () ->
        Pos.generic (Pos.empty (Store.create ()) (Pos.config ~leaf_target:64 ())) );
    ( "mvbt",
      fun () ->
        Siri_mvbt.Mvbt.generic
          (Siri_mvbt.Mvbt.empty (Store.create ())
             (Siri_mvbt.Mvbt.config ~leaf_capacity:4 ~internal_capacity:5 ())) ) ]

(* --- scratch directories --------------------------------------------------- *)

let dir_counter = ref 0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir name =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "siri-wal-%d-%s-%d" (Unix.getpid ()) name !dir_counter)
  in
  rm_rf d;
  d

let with_dir name f =
  let d = fresh_dir name in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let open_exn ?sync ~dir mk =
  match Durable.open_ ?sync ~dir ~empty_index:(mk ()) () with
  | Ok t -> t
  | Error e -> Alcotest.failf "Durable.open_: %a" Wal.pp_error e

(* --- the scripted multi-branch workload ------------------------------------ *)

(* Full engine state: (branch, head commit id, index root) sorted by branch —
   equality on this is the "exact committed prefix" oracle. *)
let state engine =
  List.map
    (fun b ->
      let h = Engine.head engine b in
      (b, Hash.to_hex h.Engine.id, Hash.to_hex h.Engine.index_root))
    (Engine.branches engine)

let ops_a =
  List.init 6 (fun i -> Kv.Put (Printf.sprintf "alpha-%02d" i, Printf.sprintf "a%d" i))

let ops_b =
  Kv.Del "alpha-03"
  :: List.init 4 (fun i -> Kv.Put (Printf.sprintf "beta-%02d" i, Printf.sprintf "b%d" i))

type step =
  | SCommit of string * string * Kv.op list
  | SFork of string * string  (* from, name *)
  | SMerge of string * string  (* into, from *)

let script =
  [ SCommit ("master", "m1", ops_a);
    SCommit ("master", "m2", ops_b);
    SFork ("master", "dev");
    SCommit ("dev", "d1", [ Kv.Put ("alpha-00", "dev-side"); Kv.Put ("gamma-0", "g0") ]);
    SCommit ("master", "m3", [ Kv.Put ("alpha-00", "master-side"); Kv.Del ("beta-01") ]);
    SCommit ("dev", "d2", [ Kv.Put ("gamma-1", "g1") ]);
    SMerge ("master", "dev");
    SFork ("master", "feature");
    SCommit ("feature", "f1", [ Kv.Put ("delta-0", "d0"); Kv.Put ("delta-1", "d1") ]);
    SCommit ("master", "m4", [ Kv.Del ("gamma-0"); Kv.Put ("alpha-05", "rewritten") ]) ]

let apply_step t = function
  | SCommit (branch, message, ops) ->
      ignore (Durable.commit t ~branch ~message ops : Engine.commit)
  | SFork (from, name) -> Durable.fork t ~from name
  | SMerge (into, from) -> (
      match Durable.merge_branches t ~into ~from ~policy:Kv.Prefer_right with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "scripted merge unexpectedly conflicted")

(* Run the script in [dir]; returns the journal bytes, the end offset of
   each record, and the state snapshot after 0, 1, ... n records. *)
let run_script mk dir =
  let t = open_exn ~sync:false ~dir mk in
  let states = ref [ state (Durable.engine t) ] in
  let ends = ref [] in
  List.iter
    (fun s ->
      apply_step t s;
      states := state (Durable.engine t) :: !states;
      ends := Durable.journal_bytes t :: !ends)
    script;
  Durable.close t;
  let journal = read_file (Durable.journal_path dir) in
  (journal, List.rev !ends, Array.of_list (List.rev !states))

let state_testable =
  Alcotest.(list (triple string string string))

(* --- exhaustive torn-write simulation --------------------------------------- *)

let crash_case (name, mk) () =
  with_dir ("script-" ^ name) @@ fun dir0 ->
  let journal, ends, states = run_script mk dir0 in
  Alcotest.(check int) "one record per step" (List.length script) (List.length ends);
  Alcotest.(check int)
    "journal length is the last record end"
    (String.length journal) (List.nth ends (List.length ends - 1));
  let scratch = fresh_dir ("torn-" ^ name) in
  Fun.protect ~finally:(fun () -> rm_rf scratch) @@ fun () ->
  Unix.mkdir scratch 0o755;
  for l = 0 to String.length journal do
    write_file (Durable.journal_path scratch) (String.sub journal 0 l);
    let t = open_exn ~sync:false ~dir:scratch mk in
    (* Exactly the records that fit in the prefix are recovered. *)
    let k = List.length (List.filter (fun e -> e <= l) ends) in
    Alcotest.check state_testable
      (Printf.sprintf "%s: truncation at %d recovers prefix of %d records" name l k)
      states.(k)
      (state (Durable.engine t));
    let r = Durable.recovery t in
    Alcotest.(check int) (Printf.sprintf "%s@%d replayed" name l) k r.Durable.replayed;
    let valid_prefix =
      (* A torn header (l < |magic|) is clamped in full. *)
      if k > 0 then List.nth ends (k - 1)
      else if l >= String.length Wal.magic then String.length Wal.magic
      else 0
    in
    Alcotest.(check int)
      (Printf.sprintf "%s@%d clamped bytes" name l)
      (l - valid_prefix) r.Durable.clamped_bytes;
    Durable.close t
  done

(* After a torn-tail clamp, the journal must keep accepting appends: recover,
   commit again, reopen, and the new commit is there. *)
let test_append_after_clamp () =
  let mk = List.assoc "pos" makers in
  with_dir "clamp-append" @@ fun dir0 ->
  let journal, ends, states = run_script mk dir0 in
  ignore states;
  let scratch = fresh_dir "clamp-append-scratch" in
  Fun.protect ~finally:(fun () -> rm_rf scratch) @@ fun () ->
  Unix.mkdir scratch 0o755;
  (* Tear mid-way through the 6th record. *)
  let l = List.nth ends 5 - 7 in
  write_file (Durable.journal_path scratch) (String.sub journal 0 l);
  let t = open_exn ~sync:false ~dir:scratch mk in
  Alcotest.(check bool) "clamped" true
    ((Durable.recovery t).Durable.clamped_bytes > 0);
  let c =
    Durable.commit t ~branch:"master" ~message:"post-crash"
      [ Kv.Put ("phoenix", "rises") ]
  in
  let s_after = state (Durable.engine t) in
  Durable.close t;
  let t' = open_exn ~sync:false ~dir:scratch mk in
  Alcotest.check state_testable "post-crash commit survives reopen" s_after
    (state (Durable.engine t'));
  Alcotest.(check (option string))
    "value readable" (Some "rises")
    (Durable.get t' ~branch:"master" "phoenix");
  Alcotest.(check bool) "same head id" true
    (Hash.equal c.Engine.id (Engine.head (Durable.engine t') "master").Engine.id);
  Durable.close t'

(* --- mid-journal corruption -------------------------------------------------- *)

let test_targeted_corruption () =
  let mk = List.assoc "mpt" makers in
  with_dir "corrupt" @@ fun dir0 ->
  let journal, ends, _ = run_script mk dir0 in
  let scratch = fresh_dir "corrupt-scratch" in
  Fun.protect ~finally:(fun () -> rm_rf scratch) @@ fun () ->
  Unix.mkdir scratch 0o755;
  (* Flip one payload byte of the third record (well before the tail). *)
  let start = List.nth ends 1 in
  let off = start + 4 + Hash.size + 3 in
  let b = Bytes.of_string journal in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x10));
  write_file (Durable.journal_path scratch) (Bytes.to_string b);
  match Durable.open_ ~sync:false ~dir:scratch ~empty_index:(mk ()) () with
  | Ok _ -> Alcotest.fail "mid-journal corruption went undetected"
  | Error (`Tampered o) ->
      Alcotest.(check int) "tampered offset names the damaged record" start o
  | Error (`Malformed m) -> Alcotest.failf "expected `Tampered, got `Malformed %s" m

(* Seeded bit-flip plans over the whole journal file: every outcome is a
   typed error or an exact committed prefix — never an exception, never a
   state that mixes records. *)
let flip_case (name, mk) () =
  with_dir ("flip-" ^ name) @@ fun dir0 ->
  let journal, _, states = run_script mk dir0 in
  let scratch = fresh_dir ("flip-scratch-" ^ name) in
  Fun.protect ~finally:(fun () -> rm_rf scratch) @@ fun () ->
  Unix.mkdir scratch 0o755;
  let tampered = ref 0 and prefixes = ref 0 and damaged_runs = ref 0 in
  for seed = 1 to 30 do
    let damaged, offsets = Fault.flip_blob ~seed ~rate:0.01 journal in
    if offsets <> [] then begin
      incr damaged_runs;
      write_file (Durable.journal_path scratch) damaged;
      match Durable.open_ ~sync:false ~dir:scratch ~empty_index:(mk ()) () with
      | Error (`Tampered _) -> incr tampered
      | Error (`Malformed _) -> ()
      | Ok t ->
          let got = state (Durable.engine t) in
          Durable.close t;
          let is_prefix = Array.exists (fun s -> s = got) states in
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d: recovered state is an exact prefix" name seed)
            true is_prefix;
          incr prefixes
    end
  done;
  Alcotest.(check bool) "bit flips actually landed" true (!damaged_runs > 10);
  Alcotest.(check bool) "some corruption detected as `Tampered" true (!tampered > 0);
  ignore !prefixes

(* --- clean-shutdown identity and qcheck properties --------------------------- *)

(* append ∘ recover is the identity on clean shutdown, and replaying the
   same journal twice (two successive reopens) equals replaying it once. *)
let qcheck_reopen_identity =
  let gen =
    QCheck.(
      list_of_size Gen.(1 -- 8)
        (list_of_size Gen.(1 -- 6)
           (pair (string_gen_of_size Gen.(1 -- 12) Gen.printable)
              (string_gen_of_size Gen.(0 -- 12) Gen.printable))))
  in
  QCheck.Test.make ~name:"reopen after clean shutdown is the identity" ~count:20
    gen (fun batches ->
      let mk = List.assoc "pos" makers in
      with_dir "qcheck-reopen" @@ fun dir ->
      let t = open_exn ~sync:false ~dir mk in
      List.iteri
        (fun i batch ->
          ignore
            (Durable.commit t ~branch:"master"
               ~message:(Printf.sprintf "b%d" i)
               (List.map (fun (k, v) -> Kv.Put (k, v)) batch)
              : Engine.commit))
        batches;
      let final = state (Durable.engine t) in
      Durable.close t;
      let t1 = open_exn ~sync:false ~dir mk in
      let s1 = state (Durable.engine t1) in
      let r1 = (Durable.recovery t1).Durable.replayed in
      Durable.close t1;
      let t2 = open_exn ~sync:false ~dir mk in
      let s2 = state (Durable.engine t2) in
      let r2 = (Durable.recovery t2).Durable.replayed in
      Durable.close t2;
      s1 = final && s2 = final
      && r1 = List.length batches
      && r2 = List.length batches)

(* Journal encode/scan roundtrip on arbitrary record lists. *)
let qcheck_journal_roundtrip =
  let str_gen = QCheck.Gen.(string_size ~gen:printable (0 -- 20)) in
  let ops_gen =
    QCheck.Gen.(
      list_size (0 -- 8)
        (oneof
           [ map2 (fun k v -> Kv.Put (k, v)) str_gen str_gen;
             map (fun k -> Kv.Del k) str_gen ]))
  in
  let record_gen =
    QCheck.Gen.(
      oneof
        [ map3
            (fun branch message ops -> Wal.Commit { branch; message; ops })
            str_gen str_gen ops_gen;
          map2 (fun from name -> Wal.Fork { from; name }) str_gen str_gen;
          map2
            (fun (into, from) (message, ops) ->
              Wal.Merge { into; from; message; ops })
            (pair str_gen str_gen) (pair str_gen ops_gen) ])
  in
  QCheck.Test.make ~name:"journal scan inverts encode" ~count:200
    (QCheck.make QCheck.Gen.(list_size (0 -- 20) record_gen))
    (fun records ->
      let blob =
        Wal.magic
        ^ String.concat ""
            (List.mapi (fun i r -> Wal.encode_record ~seq:(i + 1) r) records)
      in
      match Wal.scan blob with
      | Error _ -> false
      | Ok { Wal.entries; clamped_bytes; valid_prefix; _ } ->
          clamped_bytes = 0
          && valid_prefix = String.length blob
          && List.map snd entries = records
          && List.map fst entries = List.init (List.length records) (fun i -> i + 1))

(* Scan is total on arbitrary bytes. *)
let qcheck_scan_total =
  QCheck.Test.make ~name:"scan is total on arbitrary bytes" ~count:300
    QCheck.(string_of_size Gen.(0 -- 300))
    (fun s ->
      match Wal.scan s with
      | Ok _ | Error (`Tampered _) | Error (`Malformed _) -> true
      | exception e ->
          QCheck.Test.fail_reportf "scan raised %s" (Printexc.to_string e))

(* --- checkpointing ------------------------------------------------------------ *)

let test_checkpoint_roundtrip () =
  let mk = List.assoc "mvbt" makers in
  with_dir "checkpoint" @@ fun dir ->
  let _, _, states = run_script mk dir in
  let final = states.(Array.length states - 1) in
  (* Recover (full replay), then checkpoint. *)
  let t = open_exn ~sync:false ~dir mk in
  Alcotest.(check int) "full replay before checkpoint"
    (List.length script)
    (Durable.recovery t).Durable.replayed;
  Durable.checkpoint t;
  Alcotest.(check int) "journal reset to bare magic"
    (String.length Wal.magic) (Durable.journal_bytes t);
  Durable.close t;
  (* Reopen: journal-free recovery from the snapshot, identical state. *)
  let t' = open_exn ~sync:false ~dir mk in
  let r = Durable.recovery t' in
  Alcotest.(check int) "nothing replayed" 0 r.Durable.replayed;
  Alcotest.(check int) "nothing skipped" 0 r.Durable.skipped;
  Alcotest.(check int) "snapshot generation loaded" 1 r.Durable.generation;
  Alcotest.check state_testable "identical roots after checkpoint reopen" final
    (state (Durable.engine t'));
  (* And the journal keeps working after a checkpoint. *)
  ignore
    (Durable.commit t' ~branch:"master" ~message:"after-checkpoint"
       [ Kv.Put ("epsilon", "e") ]
      : Engine.commit);
  let s = state (Durable.engine t') in
  Durable.close t';
  let t'' = open_exn ~sync:false ~dir mk in
  Alcotest.(check int) "one record replayed over the snapshot" 1
    (Durable.recovery t'').Durable.replayed;
  Alcotest.check state_testable "post-checkpoint commit recovered" s
    (state (Durable.engine t''));
  Durable.close t''

(* Crash between manifest publication and journal truncation: the snapshot
   already captures every journal record, so replay must skip them all
   (sequence-number fencing) instead of applying them twice. *)
let test_checkpoint_crash_window () =
  let mk = List.assoc "pos" makers in
  with_dir "ckpt-window" @@ fun dir ->
  let _, _, states = run_script mk dir in
  let final = states.(Array.length states - 1) in
  let journal_before = read_file (Durable.journal_path dir) in
  let t = open_exn ~sync:false ~dir mk in
  Durable.checkpoint t;
  Durable.close t;
  (* Undo the truncation, as if the crash hit right after the manifest
     rename: full journal + new manifest coexist. *)
  write_file (Durable.journal_path dir) journal_before;
  let t' = open_exn ~sync:false ~dir mk in
  let r = Durable.recovery t' in
  Alcotest.(check int) "all records skipped" (List.length script) r.Durable.skipped;
  Alcotest.(check int) "none replayed twice" 0 r.Durable.replayed;
  Alcotest.check state_testable "state not double-applied" final
    (state (Durable.engine t'));
  Durable.close t'

(* --- telemetry ---------------------------------------------------------------- *)

let test_instrumentation () =
  let mk = List.assoc "pos" makers in
  with_dir "telemetry" @@ fun dir ->
  let journal, ends, _ = run_script mk dir in
  (* Reopen over a torn journal with a sink attached to the fresh store. *)
  let inst = mk () in
  let sink = Telemetry.create () in
  Store.set_sink inst.Generic.store sink;
  let l = List.nth ends 3 + 5 in
  write_file (Durable.journal_path dir) (String.sub journal 0 l);
  (* The scratch dir still has no manifest; reopen replays 4 and clamps. *)
  match Durable.open_ ~sync:false ~dir ~empty_index:inst () with
  | Error e -> Alcotest.failf "open: %a" Wal.pp_error e
  | Ok t ->
      Alcotest.(check int) "recovery.replayed" 4
        (Telemetry.counter sink "recovery.replayed");
      Alcotest.(check int) "recovery.clamped" 1
        (Telemetry.counter sink "recovery.clamped");
      Alcotest.(check int) "recovery.clamped_bytes" 5
        (Telemetry.counter sink "recovery.clamped_bytes");
      Alcotest.(check bool) "recovery span recorded" true
        (List.exists
           (fun (s : Telemetry.span) -> s.Telemetry.name = "recovery")
           (Telemetry.spans sink));
      ignore
        (Durable.commit t ~branch:"master" ~message:"instrumented"
           [ Kv.Put ("k", "v") ]
          : Engine.commit);
      Alcotest.(check int) "wal.append" 1 (Telemetry.counter sink "wal.append");
      Alcotest.(check bool) "wal.append_bytes counted" true
        (Telemetry.counter sink "wal.append_bytes" > 0);
      Alcotest.(check int) "no fsync under ~sync:false" 0
        (Telemetry.counter sink "wal.fsync");
      Durable.close t

(* --- Engine.load graceful degradation (two-file atomicity hole) --------------- *)

let make_pos () =
  Pos.generic (Pos.empty (Store.create ()) (Pos.config ~leaf_target:64 ()))

let test_engine_load_clamps_ghost_head () =
  with_dir "ghost-head" @@ fun dir ->
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "engine" in
  let engine = Engine.create ~empty_index:(make_pos ()) in
  ignore
    (Engine.commit engine ~branch:"master" ~message:"m"
       [ Kv.Put ("a", "1"); Kv.Put ("b", "2") ]
      : Engine.commit);
  Engine.fork engine ~from:"master" "dev";
  Engine.save ~sync:false engine path;
  (* A head added after the store file was written — the crash window of
     the old two-rename [Engine.save]. *)
  let ghost = Hash.of_string "commit that never reached the store" in
  let oc = open_out_gen [ Open_append ] 0o644 (path ^ ".heads") in
  Printf.fprintf oc "orphan\t%s\n" (Hash.to_hex ghost);
  close_out oc;
  let loaded = Engine.load ~empty_index:(make_pos ()) path in
  Alcotest.(check (list string))
    "ghost branch clamped, consistent heads kept" [ "dev"; "master" ]
    (Engine.branches loaded);
  Alcotest.(check (option string)) "data intact" (Some "1")
    (Engine.get loaded ~branch:"master" "a")

let test_engine_load_checked () =
  with_dir "load-checked" @@ fun dir ->
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "engine" in
  let engine = Engine.create ~empty_index:(make_pos ()) in
  Engine.save ~sync:false engine path;
  (* Every head ghosted: typed error, not Not_found / Failure. *)
  Io.replace ~sync:false (path ^ ".heads") (fun oc ->
      Printf.fprintf oc "master\t%s\n" (Hash.to_hex (Hash.of_string "ghost")));
  (match Engine.load_checked ~empty_index:(make_pos ()) path with
  | Error (`Malformed msg) ->
      Alcotest.(check bool) "mentions absent commits" true
        (Astring.String.is_infix ~affix:"absent" msg)
  | Ok _ -> Alcotest.fail "expected `Malformed");
  (* Malformed heads file: typed error. *)
  Io.replace ~sync:false (path ^ ".heads") (fun oc ->
      output_string oc "no tab separator here\n");
  (match Engine.load_checked ~empty_index:(make_pos ()) path with
  | Error (`Malformed _) -> ()
  | Ok _ -> Alcotest.fail "expected `Malformed");
  (* Missing store file: typed error. *)
  match Engine.load_checked ~empty_index:(make_pos ()) (path ^ "-nonexistent") with
  | Error (`Malformed _) -> ()
  | Ok _ -> Alcotest.fail "expected `Malformed"

(* --- tmp-file hardening -------------------------------------------------------- *)

let test_stale_tmp_cleanup () =
  with_dir "stale-tmp" @@ fun dir ->
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "store.bin" in
  let store = Store.create () in
  ignore (Store.put store "payload" : Hash.t);
  Store.save ~sync:false store path;
  (* Debris from an interrupted save. *)
  let stale = path ^ ".tmp.999.7" in
  write_file stale "half-written garbage";
  let loaded = Store.load path in
  Alcotest.(check int) "nodes loaded" 1 (Store.stats loaded).Store.unique_nodes;
  Alcotest.(check bool) "stale tmp swept on load" false (Sys.file_exists stale);
  (* Saves use unique tmp names: two saves to one path cannot collide, and
     the destination stays loadable. *)
  Store.save ~sync:false store path;
  Store.save ~sync:false store path;
  Alcotest.(check int) "still loadable" 1
    (Store.stats (Store.load path)).Store.unique_nodes;
  (* Opening a flat durable directory or a sharded root sweeps the tmp
     files its own atomic writes (manifests, journal checkpoints) leave. *)
  let mk = List.assoc "pos" makers in
  let swept what root names reopen =
    List.iter (fun n -> write_file (Filename.concat root n) "torn") names;
    reopen ();
    List.iter
      (fun n ->
        Alcotest.(check bool)
          (what ^ ": " ^ n ^ " swept") false
          (Sys.file_exists (Filename.concat root n)))
      names
  in
  let flat = Filename.concat dir "flat" in
  Durable.close (open_exn ~sync:false ~dir:flat mk);
  swept "flat" flat [ "journal.tmp.999.1"; "MANIFEST.tmp.999.2" ] (fun () ->
      Durable.close (open_exn ~sync:false ~dir:flat mk));
  let sharded = Filename.concat dir "sharded" in
  let open_sharded () =
    match
      Siri_shard.Sharded.open_ ~sync:false ~runner:`Inline ~dir:sharded
        ~empty_index:mk ()
    with
    | Ok t -> Siri_shard.Sharded.close t
    | Error e -> Alcotest.failf "Sharded.open_: %a" Wal.pp_error e
  in
  open_sharded ();
  swept "sharded" sharded [ "top.tmp.999.3"; "SHARDS.tmp.999.4" ] open_sharded

let () =
  let qcheck = QCheck_alcotest.to_alcotest in
  Alcotest.run "wal"
    [ ( "torn-write crash simulator",
        List.map
          (fun (name, mk) ->
            Alcotest.test_case
              (name ^ ": truncation at every byte offset")
              `Slow
              (crash_case (name, mk)))
          makers
        @ [ Alcotest.test_case "append after torn-tail clamp" `Quick
              test_append_after_clamp ] );
      ( "corruption",
        Alcotest.test_case "mid-journal flip is `Tampered" `Quick
          test_targeted_corruption
        :: List.map
             (fun (name, mk) ->
               Alcotest.test_case
                 (name ^ ": seeded bit-flip plans")
                 `Quick
                 (flip_case (name, mk)))
             makers );
      ( "journal properties",
        [ qcheck qcheck_journal_roundtrip;
          qcheck qcheck_scan_total;
          qcheck qcheck_reopen_identity ] );
      ( "checkpoint",
        [ Alcotest.test_case "checkpoint -> journal-free reopen" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "crash between manifest and truncation" `Quick
            test_checkpoint_crash_window ] );
      ( "telemetry",
        [ Alcotest.test_case "wal.* and recovery.* probes" `Quick
            test_instrumentation ] );
      ( "engine degradation",
        [ Alcotest.test_case "ghost head is clamped" `Quick
            test_engine_load_clamps_ghost_head;
          Alcotest.test_case "load_checked typed errors" `Quick
            test_engine_load_checked ] );
      ( "tmp hardening",
        [ Alcotest.test_case "stale tmp cleanup + unique suffixes" `Quick
            test_stale_tmp_cleanup ] ) ]
