(* The crash-ordering rules of durable directories, checked on the effect
   trace Siri_io.Io records.  Three scripted runs under [sync:true] — a
   flat snapshot directory, a flat pack directory that rolls a segment
   and compacts, and a sharded directory that reshards — are recorded one
   call at a time, and each call's effects must obey:

   I1  every created file or directory has its parent fsynced after the
       creation, before the creating call returns; reopening an existing
       directory creates nothing and fsyncs nothing;
   I2  every rename's source is fsynced after its last write and before
       the rename, and the destination directory is fsynced before the
       call returns;
   I3  a commit returns only after an fsync of its journal (and of [top]
       when sharded) that follows that journal's last flush;
   I4  a checkpoint fsyncs sealed then active segments and replaces the
       index and heads before the MANIFEST, the MANIFEST before the
       journal rewrite, and the journal rewrite before any removal of
       the old generation; a compaction or reshard fsyncs its new files
       and their directories before the manifest flip and removes old
       files only after it;
   I5  a file is fsynced only when it was written since its previous
       fsync — checked over the whole run, a rename carrying its source's
       state to the destination. *)

open Siri_core
module Io = Siri_io.Io
module Store = Siri_store.Store
module Engine = Siri_forkbase.Engine
module Wal = Siri_wal.Wal
module Durable = Siri_wal.Durable
module Sharded = Siri_shard.Sharded
module Partition = Siri_shard.Partition
module Mpt = Siri_mpt.Mpt
module Hash = Siri_crypto.Hash
module Telemetry = Siri_telemetry.Telemetry
module Pack = Siri_pack.Pack
open Io.For_testing

(* --- scratch directories ---------------------------------------------------- *)

let dir_counter = ref 0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_dir name f =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "siri-io-%d-%s-%d" (Unix.getpid ()) name !dir_counter)
  in
  rm_rf d;
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let mk_mpt () = Mpt.generic (Mpt.empty (Store.create ()))

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" what Wal.pp_error e

(* --- recorded steps --------------------------------------------------------- *)

type kind = Open | Reopen | Commit | Checkpoint | Compact | Reshard | Close

type step = { label : string; kind : kind; trace : effect array }

let pp_effect = function
  | Mkdir p -> "mkdir " ^ p
  | Create p -> "create " ^ p
  | Flush (p, n) -> Printf.sprintf "flush %s @%d" p n
  | Fsync p -> "fsync " ^ p
  | Fsync_dir p -> "fsync-dir " ^ p
  | Rename (a, b) -> Printf.sprintf "rename %s -> %s" a b
  | Truncate (p, n) -> Printf.sprintf "truncate %s @%d" p n
  | Remove p -> "remove " ^ p

(* A run is a list of steps, each one call recorded on its own. *)
let recorded = ref []

let step kind label f =
  let v, trace = record f in
  recorded := { label; kind; trace = Array.of_list trace } :: !recorded;
  v

let steps () =
  let l = List.rev !recorded in
  recorded := [];
  l

let fail_at s i rule why =
  Alcotest.failf "%s: step %S, effect %d (%s): %s" rule s.label i
    (pp_effect s.trace.(i)) why

let exists_between s lo hi p =
  let rec go i = i < hi && (p s.trace.(i) || go (i + 1)) in
  go (max lo 0)

let indices s p =
  List.filter (fun i -> p s.trace.(i)) (List.init (Array.length s.trace) Fun.id)

let last_before s i p =
  List.fold_left (fun acc j -> if j < i && p s.trace.(j) then j else acc) (-1)
    (indices s p)

let dir_of = Filename.dirname
let base = Filename.basename
let len s = Array.length s.trace

(* --- the rules --------------------------------------------------------------- *)

let i1 s =
  Array.iteri
    (fun i e ->
      match e with
      | Create p | Mkdir p ->
          if not (exists_between s (i + 1) (len s) (( = ) (Fsync_dir (dir_of p))))
          then fail_at s i "I1" "parent directory not fsynced after the creation"
      | _ -> ())
    s.trace;
  if s.kind = Reopen then
    Array.iteri
      (fun i e ->
        match e with
        | Create _ | Mkdir _ | Fsync _ | Fsync_dir _ ->
            fail_at s i "I1" "a reopen creates or fsyncs"
        | _ -> ())
      s.trace

(* A written file is the subject of a flush, create or truncate; any
   other rename source is a directory, written through its entries. *)
let writes_file p = function
  | Flush (q, _) | Create q | Truncate (q, _) -> q = p
  | _ -> false

let writes_entry d = function
  | Create q | Mkdir q | Remove q | Rename (_, q) -> dir_of q = d
  | _ -> false

let i2 s =
  Array.iteri
    (fun i e ->
      match e with
      | Rename (src, dst) ->
          let is_file = exists_between s 0 i (writes_file src) in
          let last, synced =
            if is_file then (last_before s i (writes_file src), Fsync src)
            else (last_before s i (writes_entry src), Fsync_dir src)
          in
          if not (exists_between s (last + 1) i (( = ) synced)) then
            fail_at s i "I2" "source not fsynced after its last write";
          if not (exists_between s (i + 1) (len s) (( = ) (Fsync_dir (dir_of dst))))
          then fail_at s i "I2" "destination directory not fsynced"
      | _ -> ())
    s.trace

let i3 ~sharded s =
  let journals =
    List.sort_uniq compare
      (List.filter_map
         (function
           | Flush (p, _) when base p = "journal" || base p = "top" -> Some p
           | _ -> None)
         (Array.to_list s.trace))
  in
  if not (List.exists (fun p -> base p = "journal") journals) then
    Alcotest.failf "I3: commit %S flushed no journal" s.label;
  if sharded && not (List.exists (fun p -> base p = "top") journals) then
    Alcotest.failf "I3: sharded commit %S flushed no top" s.label;
  List.iter
    (fun p ->
      let last = last_before s (len s) (function Flush (q, _) -> q = p | _ -> false) in
      if not (exists_between s (last + 1) (len s) (( = ) (Fsync p))) then
        fail_at s last "I3" "the commit returned before its journal's fsync")
    journals

let renamed_to s f =
  indices s (function Rename (_, d) -> f d | _ -> false)

let seg_id p = Siri_pack.Segment.id_of_filename (base p)

(* [earlier] effects must all come before [later] ones. *)
let precede s earlier later why =
  List.iter
    (fun i -> List.iter (fun j -> if i > j then fail_at s i "I4" why) later)
    earlier

(* One durable directory's checkpoint, [d] the directory holding its
   MANIFEST. *)
let i4_checkpoint s d =
  let only name =
    match renamed_to s (( = ) (Filename.concat d name)) with
    | [ i ] -> i
    | l ->
        Alcotest.failf "I4: step %S replaces %s/%s %d times" s.label d name
          (List.length l)
  in
  let manifest = only "MANIFEST" and journal = only "journal" in
  let pack = Filename.concat d "pack" in
  let segments =
    indices s (function
      | Fsync p -> dir_of p = pack && seg_id p <> None
      | _ -> false)
  in
  let ids =
    List.map
      (fun i -> match s.trace.(i) with Fsync p -> seg_id p | _ -> None)
      segments
  in
  if ids <> List.sort compare ids then
    Alcotest.failf "I4: step %S fsyncs segments out of id order" s.label;
  let index = renamed_to s (( = ) (Filename.concat pack "index")) in
  let snapshot =
    renamed_to s (fun p ->
        dir_of p = d && String.starts_with ~prefix:"store." (base p))
  in
  precede s segments (index @ [ manifest ])
    "segment fsync after the index or MANIFEST replace";
  precede s (index @ snapshot) [ manifest ] "replaced after the MANIFEST";
  precede s [ manifest ] [ journal ] "MANIFEST replaced after the journal rewrite";
  precede s [ journal ]
    (indices s (function Remove p -> dir_of p = d | _ -> false))
    "journal rewritten after a removal of the old generation"

let i4_checkpoints s =
  let manifests = renamed_to s (fun p -> base p = "MANIFEST") in
  if manifests = [] then
    Alcotest.failf "I4: checkpoint %S replaced no MANIFEST" s.label;
  List.iter
    (fun i ->
      match s.trace.(i) with
      | Rename (_, p) -> i4_checkpoint s (dir_of p)
      | _ -> ())
    manifests;
  (* Sharded: the composite journal is compacted after every shard's
     checkpoint. *)
  precede s manifests
    (renamed_to s (fun p -> base p = "top"))
    "shard MANIFEST replaced after the top rewrite"

(* Compaction and reshard: everything created before the flip (but the
   flip's own temp file) is fsynced, file and directory, before it; every
   removal comes after it. *)
let i4_flip s ~flip_name =
  let flip, flip_tmp =
    match renamed_to s (fun p -> base p = flip_name) with
    | [ i ] -> (i, match s.trace.(i) with Rename (tmp, _) -> tmp | _ -> "")
    | l ->
        Alcotest.failf "I4: step %S flips %s %d times" s.label flip_name
          (List.length l)
  in
  Array.iteri
    (fun i e ->
      let before_flip e' = exists_between s (i + 1) flip (( = ) e') in
      match e with
      | (Create p | Mkdir p) when i < flip && p <> flip_tmp ->
          if not (before_flip (Fsync_dir (dir_of p))) then
            fail_at s i "I4" "directory of a new entry not fsynced before the flip";
          if (match e with Create _ -> true | _ -> false)
             && not (before_flip (Fsync p))
          then fail_at s i "I4" "new file not fsynced before the flip"
      | Remove _ when i < flip -> fail_at s i "I4" "removal before the flip"
      | _ -> ())
    s.trace;
  if not (exists_between s flip (len s) (function Remove _ -> true | _ -> false))
  then Alcotest.failf "I4: step %S removed nothing after the flip" s.label

(* A flush writes when it changes the file's length; a create or truncate
   always writes.  Per path: the length last seen and whether it was
   written since its last fsync. *)
let i5 steps =
  let files : (string, int option * bool) Hashtbl.t = Hashtbl.create 32 in
  let under p q = q = p || String.starts_with ~prefix:(p ^ "/") q in
  let within p =
    Hashtbl.fold (fun q st acc -> if under p q then (q, st) :: acc else acc) files []
  in
  List.iter
    (fun s ->
      Array.iteri
        (fun i e ->
          match e with
          | Create p -> Hashtbl.replace files p (None, true)
          | Truncate (p, n) -> Hashtbl.replace files p (Some n, true)
          | Flush (p, n) -> (
              match Hashtbl.find_opt files p with
              | Some (Some m, dirty) when m = n -> Hashtbl.replace files p (Some n, dirty)
              | _ -> Hashtbl.replace files p (Some n, true))
          | Fsync p -> (
              match Hashtbl.find_opt files p with
              | Some (len, true) -> Hashtbl.replace files p (len, false)
              | _ -> fail_at s i "I5" "fsync without a write since the previous one")
          | Rename (src, dst) ->
              List.iter
                (fun (q, st) ->
                  Hashtbl.remove files q;
                  let n = String.length src in
                  Hashtbl.replace files (dst ^ String.sub q n (String.length q - n)) st)
                (within src)
          | Remove p -> List.iter (fun (q, _) -> Hashtbl.remove files q) (within p)
          | Mkdir _ | Fsync_dir _ -> ())
        s.trace)
    steps

let check_all ~sharded steps =
  i5 steps;
  List.iter
    (fun s ->
      i1 s;
      i2 s;
      match s.kind with
      | Commit -> i3 ~sharded s
      | Checkpoint -> i4_checkpoints s
      | Compact -> i4_flip s ~flip_name:"manifest"
      | Reshard -> i4_flip s ~flip_name:"SHARDS"
      | Open | Reopen | Close -> ())
    steps

let has s p = Array.exists p s.trace
let find_step steps label = List.find (fun s -> s.label = label) steps

(* --- scripted runs ---------------------------------------------------------- *)

let put i = Kv.Put (Printf.sprintf "k%03d" i, Printf.sprintf "v%d" i)

let open_flat ~backend dir kind label =
  step kind label (fun () ->
      ok_exn label
        (Durable.open_ ~sync:true ~backend ~dir ~empty_index:(mk_mpt ()) ()))

let flat_commit t ops label =
  step Commit label (fun () ->
      ignore (Durable.commit t ~branch:"master" ~message:label ops : Engine.commit))

let test_flat_snapshot () =
  with_dir "snapshot" @@ fun dir ->
  let t = open_flat ~backend:`Snapshot dir Open "open fresh" in
  List.iter (fun i -> flat_commit t [ put i ] (Printf.sprintf "commit %d" i)) [ 0; 1; 2 ];
  step Checkpoint "checkpoint 1" (fun () -> Durable.checkpoint t);
  flat_commit t [ put 3 ] "commit 3";
  step Checkpoint "checkpoint 2" (fun () -> Durable.checkpoint t);
  step Close "close" (fun () -> Durable.close t);
  Durable.close (open_flat ~backend:`Snapshot dir Reopen "reopen");
  let steps = steps () in
  check_all ~sharded:false steps;
  Alcotest.(check bool) "the fresh journal is created" true
    (has (find_step steps "open fresh") (( = ) (Create (Durable.journal_path dir))));
  Alcotest.(check bool) "the second checkpoint removes generation 1" true
    (has (find_step steps "checkpoint 2")
       (( = ) (Remove (Filename.concat dir "store.1"))))

(* [Durable] opens its pack at the default 8 MiB segment target, so a
   roll takes a bulk load of 12 values of 768 KiB. *)
let big_keys = List.init 12 (Printf.sprintf "bulk-%02d")

let big_entries =
  List.mapi (fun i k -> (k, String.make (768 * 1024) (Char.chr (97 + i)))) big_keys

let test_flat_pack () =
  with_dir "pack" @@ fun dir ->
  let t = open_flat ~backend:`Pack dir Open "open fresh" in
  step Commit "bulk commit across a roll" (fun () ->
      ignore (Durable.commit_bulk t ~branch:"master" ~message:"bulk" big_entries
              : Engine.commit));
  List.iter (fun i -> flat_commit t [ put i ] (Printf.sprintf "commit %d" i)) [ 0; 1 ];
  step Checkpoint "checkpoint 1" (fun () -> Durable.checkpoint t);
  flat_commit t (List.map (fun k -> Kv.Del k) big_keys) "drop the bulk keys";
  step Checkpoint "checkpoint 2" (fun () -> Durable.checkpoint t);
  step Close "close" (fun () -> Durable.close t);
  let t = open_flat ~backend:`Pack dir Reopen "reopen" in
  let engine = Durable.engine t in
  let dropped =
    step Compact "gc compacts the pack" (fun () ->
        Store.gc (Engine.store engine)
          ~roots:[ (Engine.head engine "master").Engine.index_root ])
  in
  Durable.close t;
  let steps = steps () in
  check_all ~sharded:false steps;
  let pack = Durable.pack_dir dir in
  Alcotest.(check bool) "the bulk commit rolls a segment" true
    (has (find_step steps "bulk commit across a roll")
       (( = ) (Create (Filename.concat pack "seg-000001.pack"))));
  Alcotest.(check bool) "checkpoint 1 fsyncs the sealed segment" true
    (has (find_step steps "checkpoint 1")
       (( = ) (Fsync (Filename.concat pack "seg-000000.pack"))));
  Alcotest.(check bool) "the compaction drops records" true (dropped > 0)

let test_sharded () =
  with_dir "sharded" @@ fun dir ->
  let open_ ?spec kind label =
    step kind label (fun () ->
        ok_exn label
          (Sharded.open_ ~sync:true ~runner:`Inline ?spec ~dir
             ~empty_index:mk_mpt ()))
  in
  let t =
    open_ ~spec:(Partition.make Partition.Hash ~shards:2) Open "open fresh"
  in
  let commit i =
    step Commit (Printf.sprintf "commit %d" i) (fun () ->
        ignore
          (Sharded.commit t ~branch:"master" ~message:"m"
             (List.init 8 (fun j -> put ((8 * i) + j)))
            : Sharded.head))
  in
  List.iter commit [ 0; 1; 2 ];
  step Checkpoint "checkpoint" (fun () -> Sharded.checkpoint t);
  commit 3;
  let t =
    step Reshard "reshard to 3" (fun () -> ok_exn "reshard" (Sharded.reshard t ~shards:3))
  in
  Sharded.close t;
  Sharded.close (open_ Reopen "reopen");
  let steps = steps () in
  check_all ~sharded:true steps;
  let fresh = find_step steps "open fresh" in
  List.iter
    (fun p ->
      Alcotest.(check bool) ("the fresh open creates " ^ p) true
        (has fresh (function Create q | Mkdir q -> q = p | _ -> false)))
    [ Filename.concat dir "top";
      Filename.concat dir "shard.0";
      Filename.concat dir "shard.1";
      Filename.concat (Filename.concat dir "shard.1") "journal" ]

(* --- the overlapped journal fsync ---------------------------------------------- *)

(* Every file under a directory, by relative path, with its bytes. *)
let rec tree dir rel =
  let path = Filename.concat dir rel in
  if Sys.is_directory path then
    List.concat_map
      (fun n -> tree dir (if rel = "" then n else Filename.concat rel n))
      (List.sort compare (Array.to_list (Sys.readdir path)))
  else [ (rel, In_channel.with_open_bin path In_channel.input_all) ]

let file_size path = (Unix.stat path).Unix.st_size

(* One script of journaled writes on a fresh flat pack directory. *)
let journaled_script ~sync dir =
  let sink = Telemetry.create () in
  let store = Store.create () in
  Store.set_sink store sink;
  let t =
    ok_exn "open"
      (Durable.open_ ~sync ~backend:`Pack ~dir
         ~empty_index:(Mpt.generic (Mpt.empty store)) ())
  in
  let commit branch ops =
    ignore (Durable.commit t ~branch ~message:"m" ops : Engine.commit)
  in
  ignore
    (Durable.commit_bulk t ~branch:"master" ~message:"bulk"
       (List.init 200 (fun i -> (Printf.sprintf "k%03d" i, "bulk")))
      : Engine.commit);
  List.iter
    (fun i -> commit "master" [ put i; Kv.Del (Printf.sprintf "k%03d" (i + 100)) ])
    [ 0; 1; 2 ];
  Durable.fork t ~from:"master" "side";
  commit "side" [ put 150; put 250 ];
  (match Durable.merge_branches t ~into:"master" ~from:"side" ~policy:Kv.Prefer_right with
  | Ok (_ : Engine.commit) -> ()
  | Error _ -> Alcotest.fail "merge conflicts");
  Durable.checkpoint t;
  commit "master" [ put 7 ];
  Durable.close t;
  sink

let test_sync_identity () =
  with_dir "overlapped" @@ fun synced ->
  with_dir "inline" @@ fun unsynced ->
  let sink = journaled_script ~sync:true synced in
  ignore (journaled_script ~sync:false unsynced : Telemetry.sink);
  let a = tree synced "" and b = tree unsynced "" in
  Alcotest.(check (list string)) "same files" (List.map fst b) (List.map fst a);
  List.iter2
    (fun (name, x) (_, y) ->
      Alcotest.(check bool) (name ^ " byte-identical") true (String.equal x y))
    a b;
  (* eight journaled writes, each one fsync and one timed join *)
  Alcotest.(check int) "wal.fsync" 8 (Telemetry.counter sink "wal.fsync");
  Alcotest.(check int) "wal.fsync_wait samples" 8
    (Option.fold ~none:0 ~some:Telemetry.Histo.count
       (Telemetry.histogram sink "wal.fsync_wait"))

let test_failed_fsync () =
  with_dir "failed-fsync" @@ fun dir ->
  let open_ () =
    ok_exn "open"
      (Durable.open_ ~sync:true ~backend:`Pack ~dir ~empty_index:(mk_mpt ()) ())
  in
  let commit t i =
    ignore (Durable.commit t ~branch:"master" ~message:"m" [ put i ] : Engine.commit)
  in
  let t = open_ () in
  List.iter (commit t) [ 0; 1 ];
  let acked = Engine.head (Durable.engine t) "master" in
  let bytes = Durable.journal_bytes t in
  Io.For_testing.fail_next_fsync (Durable.journal_path dir);
  (match commit t 2 with
  | () -> Alcotest.fail "a failed fsync must raise"
  | exception Unix.Unix_error (Unix.EIO, "fsync", _) -> ());
  Alcotest.(check int) "the frame is cut off" bytes
    (file_size (Durable.journal_path dir));
  let refused name f =
    match f () with
    | () -> Alcotest.failf "%s after a failed fsync must be refused" name
    | exception Sys_error _ -> ()
  in
  refused "a commit" (fun () -> commit t 3);
  refused "a fork" (fun () -> Durable.fork t ~from:"master" "b");
  refused "a checkpoint" (fun () -> Durable.checkpoint t);
  Durable.close t;
  let t = open_ () in
  let head = Engine.head (Durable.engine t) "master" in
  Alcotest.(check int) "acked version" acked.Engine.version head.Engine.version;
  Alcotest.(check bool) "acked commit" true (Hash.equal acked.Engine.id head.Engine.id);
  Alcotest.(check (option string)) "the refused put is absent" None
    (Durable.get t ~branch:"master" "k002");
  commit t 4;
  Durable.close t

(* A transient pack read fails the apply after its frame is journaled:
   the frame comes back out, so the retry is journaled once and the
   directory reopens to the head the live engine had. *)
let test_failed_apply () =
  with_dir "failed-apply" @@ fun dir ->
  let open_ () =
    ok_exn "open"
      (Durable.open_ ~sync:true ~backend:`Pack ~dir ~empty_index:(mk_mpt ()) ())
  in
  let commit t i =
    ignore (Durable.commit t ~branch:"master" ~message:"m" [ put i ] : Engine.commit)
  in
  let t = open_ () in
  List.iter (commit t) [ 0; 1 ];
  let bytes = Durable.journal_bytes t in
  let pack = Option.get (Durable.pack t) in
  Pack.set_read_gate pack
    (Some (Siri_fault.Fault.io_gate (Siri_fault.Fault.plan ~transient:1.0 ~seed:7 ())));
  (match commit t 2 with
  | () -> Alcotest.fail "a commit over a dead disk must raise"
  | exception Store.Transient _ -> ());
  Alcotest.(check int) "the frame is taken back" bytes
    (file_size (Durable.journal_path dir));
  Pack.set_read_gate pack None;
  commit t 2;
  let live = Engine.head (Durable.engine t) "master" in
  Durable.close t;
  let t = open_ () in
  let head = Engine.head (Durable.engine t) "master" in
  Alcotest.(check int) "live version" live.Engine.version head.Engine.version;
  Alcotest.(check bool) "live head" true (Hash.equal live.Engine.id head.Engine.id);
  Durable.close t

(* The POS-Tree twin of [test_failed_apply]: a rebuild installs its nodes
   in one pack append when it returns, so one that raises — on a dead
   disk, or on a leaf read after it has made nodes — appends nothing: the
   pack keeps its length and record count, the frame is taken back, and
   the retry commits.  The internal nodes the rebuild descends through
   come from the store's writer cache; the leaves come from the pack. *)
let test_failed_pos_rebuild () =
  with_dir "failed-pos" @@ fun dir ->
  let mk_pos () =
    let store = Store.create ~cache_bytes:0 ~proof_cache_bytes:0 () in
    Siri_pos.Pos_tree.generic
      (Siri_pos.Pos_tree.empty store (Siri_pos.Pos_tree.config ()))
  in
  let open_ () =
    ok_exn "open"
      (Durable.open_ ~sync:true ~backend:`Pack ~dir ~empty_index:(mk_pos ()) ())
  in
  (* four puts spread over the key space, so over four leaves *)
  let ops c =
    List.init 4 (fun j ->
        Kv.Put (Printf.sprintf "k%04d" ((j * 500) + 7 + c), Printf.sprintf "w%d" c))
  in
  let commit t c =
    ignore (Durable.commit t ~branch:"master" ~message:"m" (ops c) : Engine.commit)
  in
  let t = open_ () in
  ignore
    (Durable.commit_bulk t ~branch:"master" ~message:"load"
       (List.init 2000 (fun i -> (Printf.sprintf "k%04d" i, Printf.sprintf "v%d" i)))
      : Engine.commit);
  List.iter (commit t) [ 0; 1 ];
  let pack = Option.get (Durable.pack t) in
  let pack_bytes () =
    let pd = Durable.pack_dir dir in
    Array.fold_left
      (fun acc name ->
        if String.length name > 4 && String.sub name 0 4 = "seg-" then
          acc + file_size (Filename.concat pd name)
        else acc)
      0 (Sys.readdir pd)
  in
  let fail_commit what =
    let bytes = Durable.journal_bytes t in
    let length = pack_bytes () and records = Pack.count pack in
    (match commit t 2 with
    | () -> Alcotest.failf "%s: the commit must raise" what
    | exception Store.Transient _ -> ());
    Alcotest.(check int) (what ^ ": the frame is taken back") bytes
      (file_size (Durable.journal_path dir));
    Alcotest.(check int) (what ^ ": pack length unchanged") length (pack_bytes ());
    Alcotest.(check int) (what ^ ": pack records unchanged") records (Pack.count pack)
  in
  Pack.set_read_gate pack
    (Some (Siri_fault.Fault.io_gate (Siri_fault.Fault.plan ~transient:1.0 ~seed:7 ())));
  fail_commit "dead disk";
  Pack.set_read_gate pack None;
  (* the second leaf read fails, after the first leaf's nodes are made *)
  let store = Engine.store (Durable.engine t) in
  let leaves = ref 0 in
  Store.set_read_gate store
    (Some
       (fun h bytes ->
         if Split_key.is_leaf (Split_key.parse ~salted:true bytes) then begin
           incr leaves;
           if !leaves = 2 then raise (Store.Transient h)
         end));
  fail_commit "second leaf";
  Store.set_read_gate store None;
  commit t 2;
  let live = Engine.head (Durable.engine t) "master" in
  Durable.close t;
  let t = open_ () in
  let head = Engine.head (Durable.engine t) "master" in
  Alcotest.(check int) "live version" live.Engine.version head.Engine.version;
  Alcotest.(check bool) "live head" true (Hash.equal live.Engine.id head.Engine.id);
  Durable.close t

let () =
  Alcotest.run "io"
    [ ( "effect trace",
        [ Alcotest.test_case "flat snapshot: I1-I4" `Quick test_flat_snapshot;
          Alcotest.test_case "flat pack, roll, compact: I1-I4" `Quick test_flat_pack;
          Alcotest.test_case "sharded, reshard: I1-I4" `Quick test_sharded ] );
      ( "journaled writes",
        [ Alcotest.test_case "sync:true and sync:false write the same bytes" `Quick
            test_sync_identity;
          Alcotest.test_case "a failed journal fsync refuses later writes" `Quick
            test_failed_fsync;
          Alcotest.test_case "a failed apply takes its frame back" `Quick
            test_failed_apply;
          Alcotest.test_case "a failed POS rebuild appends nothing" `Quick
            test_failed_pos_rebuild ] ) ]
