module Engine = Siri_forkbase.Engine
module Store = Siri_store.Store
module Fault = Siri_fault.Fault
module Pack = Siri_pack.Pack
module Io = Siri_io.Io
module Telemetry = Siri_telemetry.Telemetry

let manifest_magic = "SIRIWALMANIFEST1"

let journal_path dir = Filename.concat dir "journal"
let manifest_path dir = Filename.concat dir "MANIFEST"
let snapshot_path dir gen = Filename.concat dir (Printf.sprintf "store.%d" gen)
let heads_path dir gen = snapshot_path dir gen ^ ".heads"
let pack_dir dir = Filename.concat dir "pack"

type backend = [ `Snapshot | `Pack ]

type recovery = {
  generation : int;
  replayed : int;
  skipped : int;
  clamped_bytes : int;
  capped : int;
}

type t = {
  dir : string;
  sync : bool;
  engine : Engine.t;
  backend : backend;
  pack : Pack.t option;
  journal : (int * Wal.record) Journal.t;
  mutable generation : int;
  mutable next_seq : int;
  recovered : recovery;
}

let backend_name = function `Snapshot -> "snapshot" | `Pack -> "pack"

(* The pack directory is created on the first open of a [`Pack]
   directory, before its journal, so it marks the backend from then on. *)
let detect dir =
  if Sys.file_exists (pack_dir dir) then Some `Pack
  else if
    Sys.file_exists (manifest_path dir) || Sys.file_exists (journal_path dir)
  then Some `Snapshot
  else None

(* [backend] only chooses the layout of a directory being created; an
   existing one answers for itself, and a stated backend that contradicts
   it is refused before anything is written. *)
let resolve_backend ~dir backend =
  (* "SHARDS" is the partition manifest of a sharded root (lib/shard). *)
  if Sys.file_exists (Filename.concat dir "SHARDS") then
    Error (`Malformed (dir ^ ": a sharded directory, not a flat one"))
  else
    match (detect dir, backend) with
    | Some found, Some asked when found <> asked ->
        Error
          (`Malformed
             (Printf.sprintf
                "%s: %s backend requested but the directory holds a %s backend"
                dir (backend_name asked) (backend_name found)))
    | Some found, _ -> Ok found
    | None, asked -> Ok (Option.value asked ~default:`Snapshot)

let recovery t = t.recovered
let engine t = t.engine
let dir t = t.dir
let backend t = t.backend
let pack t = t.pack

let sink t = Store.sink (Engine.store t.engine)

(* --- manifest ---------------------------------------------------------------- *)

(* One line of magic, one line "<generation> <last-captured-seq>".  The file
   is tiny and replaced atomically (tmp+fsync+rename), so it is either the
   old version or the new one — never torn. *)

let write_manifest ~sync dir ~generation ~seq =
  Io.replace ~sync (manifest_path dir) (fun oc ->
      Printf.fprintf oc "%s\n%d %d\n" manifest_magic generation seq)

let read_manifest dir =
  let path = manifest_path dir in
  if not (Sys.file_exists path) then Ok None
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error msg -> Error (`Malformed msg)
    | content -> (
        match String.split_on_char '\n' content with
        | m :: line :: _ when m = manifest_magic -> (
            match String.split_on_char ' ' line with
            | [ g; s ] -> (
                match (int_of_string_opt g, int_of_string_opt s) with
                | Some generation, Some seq when generation > 0 && seq >= 0 ->
                    Ok (Some (generation, seq))
                | _ -> Error (`Malformed "manifest: bad generation line"))
            | _ -> Error (`Malformed "manifest: bad generation line"))
        | _ -> Error (`Malformed "manifest: bad magic"))

(* --- directory ------------------------------------------------------------------ *)

let ensure_dir ~sync dir =
  match Io.mkdir ~sync dir with
  | () when Sys.is_directory dir -> Ok ()
  | () -> Error (`Malformed (dir ^ ": not a directory"))
  | exception Unix.Unix_error (e, _, _) ->
      Error (`Malformed (dir ^ ": " ^ Unix.error_message e))

(* --- recovery ----------------------------------------------------------------- *)

let apply_record engine = function
  | Wal.Commit { branch; message; ops } ->
      ignore (Engine.commit engine ~branch ~message ops : Engine.commit)
  | Wal.Fork { from; name } -> Engine.fork engine ~from name
  | Wal.Merge { into; from = _; message; ops } ->
      (* Replaying the resolved batch as a plain commit byte-reproduces the
         original merge commit: same parent, message, version and ops. *)
      ignore (Engine.commit engine ~branch:into ~message ops : Engine.commit)
  | Wal.Bulk { branch; message; entries } ->
      ignore (Engine.commit_bulk engine ~branch ~message entries : Engine.commit)

let ( let* ) = Result.bind

let open_ ?(sync = true) ?backend ?replay_cap ~dir ~empty_index () =
  let* backend = resolve_backend ~dir backend in
  let* () = ensure_dir ~sync dir in
  let manifest = read_manifest dir in
  (* One sweep.  Any interrupted atomic write here (snapshot, heads,
     manifest or a journal checkpoint) leaves a uniquely-named tmp file,
     never a live artifact; and a crash between manifest publication and
     old-generation removal leaves superseded snapshot files behind. *)
  let stale_generation name =
    match (manifest, Scanf.sscanf_opt name "store.%d%s" (fun g rest -> (g, rest))) with
    | Ok (Some (generation, _)), Some (g, ("" | ".heads")) -> g <> generation
    | _ -> false
  in
  Io.sweep dir (fun name -> Io.is_tmp name || stale_generation name);
  let* manifest = manifest in
  let engine_r =
    match backend with
    | `Snapshot -> (
        match manifest with
        | None -> Ok (Engine.create ~empty_index, 0, 0, None)
        | Some (generation, seq) -> (
            match Engine.load_checked ~empty_index (snapshot_path dir generation) with
            | Ok engine -> Ok (engine, generation, seq, None)
            | Error (`Malformed _) as e -> e))
    | `Pack -> (
        (* Node payloads live in the pack, so the "snapshot" of a
           generation is just its heads file: create a fresh engine,
           attach the pack — which takes over the nodes stored so far,
           the initial commit among them — and resolve the heads
           through it. *)
        let engine = Engine.create ~empty_index in
        let sink = Store.sink (Engine.store engine) in
        match Pack.open_ ~sink (pack_dir dir) with
        | Error (`Tampered msg) -> Error (`Malformed ("pack: " ^ msg))
        | Ok (p, _) -> (
            Pack.attach p (Engine.store engine);
            match manifest with
            | None -> Ok (engine, 0, 0, Some p)
            | Some (generation, seq) -> (
                match Engine.load_heads engine (heads_path dir generation) with
                | (_ : string list) -> Ok (engine, generation, seq, Some p)
                | exception Failure msg -> Error (`Malformed msg)
                | exception Sys_error msg -> Error (`Malformed msg))))
  in
  let* engine, generation, snapshot_seq, pack = engine_r in
  let sink = Store.sink (Engine.store engine) in
  let jpath = journal_path dir in
  let* { Wal.entries; ends; valid_prefix; clamped_bytes } =
    Journal.scan_file Wal.codec jpath
  in
  (* A replay cap is an outer commit point (the sharded engine's
     composite journal) saying "nothing past sequence [cap] was ever
     published": records beyond it are unpublished tail, clamped at their
     exact frame boundary just like a torn write. *)
  let entries, valid_prefix, capped =
    match replay_cap with
    | None -> (entries, valid_prefix, 0)
    | Some cap ->
        let rec take kept last_end entries ends =
          match (entries, ends) with
          | ((seq, _) as e) :: es, off :: offs when seq <= cap ->
              take (e :: kept) off es offs
          | rest, _ -> (List.rev kept, last_end, List.length rest)
        in
        take [] (String.length Wal.magic) entries ends
  in
  let replay () =
    let replayed = ref 0 and skipped = ref 0 in
    List.iter
      (fun (seq, record) ->
        if seq <= snapshot_seq then incr skipped
        else begin
          apply_record engine record;
          incr replayed
        end)
      entries;
    (!replayed, !skipped)
  in
  let* replayed, skipped =
    Telemetry.with_span sink "recovery" (fun () -> Fault.protect replay)
    |> Result.map_error (fun e ->
           (* A record that passed its checksum but cannot be applied
              (e.g. it forks from a branch the snapshot does not know):
              the journal and snapshot disagree. *)
           `Malformed ("replay failed: " ^ Fault.error_to_string e))
  in
  if clamped_bytes > 0 then begin
    Telemetry.incr sink "recovery.clamped";
    Telemetry.incr sink ~by:clamped_bytes "recovery.clamped_bytes"
  end;
  if capped > 0 then Telemetry.incr sink ~by:capped "recovery.capped";
  Telemetry.incr sink ~by:replayed "recovery.replayed";
  Telemetry.incr sink ~by:skipped "recovery.skipped";
  let last_seq =
    List.fold_left (fun acc (seq, _) -> max acc seq) snapshot_seq entries
  in
  (* Opening drops the torn (or unpublished) tail on disk, so later
     appends extend the valid prefix, not the garbage. *)
  let journal = Journal.open_ ~sync ~valid_prefix Wal.codec jpath in
  Ok
    { dir;
      sync;
      engine;
      backend;
      pack;
      journal;
      generation;
      next_seq = last_seq + 1;
      recovered = { generation; replayed; skipped; clamped_bytes; capped } }

(* --- journaled writes ---------------------------------------------------------- *)

let append ?seq t record =
  (* An explicit [seq] stamps an externally-allocated (journal-wide
     monotone) sequence number — the sharded engine numbers every shard
     journal from one global counter so a composite commit point can
     clamp all of them consistently.  Going backwards would break the
     checkpoint-manifest skip rule, so it is a programming error. *)
  let seq =
    match seq with
    | None -> t.next_seq
    | Some s ->
        if s < t.next_seq then
          invalid_arg
            (Printf.sprintf "Durable: seq %d below journal watermark %d" s
               t.next_seq);
        s
  in
  t.next_seq <- seq + 1;
  let bytes, wait = Journal.append_begin t.journal (seq, record) in
  let s = sink t in
  if t.sync then Telemetry.incr s "wal.fsync";
  Telemetry.incr s "wal.append";
  Telemetry.incr s ~by:bytes "wal.append_bytes";
  wait

(* Journal, then apply, and return once both are done.  The frame's
   fsync runs on Io's helper thread while [apply] rebuilds the index and
   appends pack records: the build never reads the journal.  Pack records
   can therefore reach the OS before their frame is durable; a crash then
   leaves records no recovered head names, which gc and compaction drop.
   [wal.fsync_wait] is the time the fsync outlasted the build.  A failed
   fsync closes the journal (Journal.append_begin) with the engine
   already ahead of it, so every later journaled write is refused.  A
   failed apply leaves the engine where it was, so its frame is taken
   back out: a retry, or the next write, must not follow a frame that
   replay would apply. *)
let journaled ?seq t record apply =
  let wait = append ?seq t record in
  let v =
    match apply () with
    | v -> v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        (try
           wait ();
           Journal.unappend t.journal
         with _ -> ());
        Printexc.raise_with_backtrace e bt
  in
  if t.sync then begin
    let s = sink t in
    let t0 = Telemetry.now s in
    wait ();
    Telemetry.observe s "wal.fsync_wait" (Telemetry.now s -. t0)
  end;
  v

let commit ?seq t ~branch ~message ops =
  (* Validate before journaling so an invalid branch never taints the log. *)
  ignore (Engine.head t.engine branch : Engine.commit);
  journaled ?seq t (Wal.Commit { branch; message; ops }) (fun () ->
      Engine.commit t.engine ~branch ~message ops)

let commit_bulk ?seq t ~branch ~message entries =
  ignore (Engine.head t.engine branch : Engine.commit);
  journaled ?seq t (Wal.Bulk { branch; message; entries }) (fun () ->
      Engine.commit_bulk t.engine ~branch ~message entries)

let fork ?seq t ~from name =
  if List.mem name (Engine.branches t.engine) then
    invalid_arg (Printf.sprintf "Engine.fork: branch %S exists" name);
  ignore (Engine.head t.engine from : Engine.commit);
  journaled ?seq t (Wal.Fork { from; name }) (fun () ->
      Engine.fork t.engine ~from name)

let get t ~branch key = Engine.get t.engine ~branch key

let merge_branches t ~into ~from ~policy =
  match Engine.merge_ops t.engine ~into ~from ~policy with
  | Error _ as e -> e
  | Ok ops ->
      let message = Engine.merge_message ~into ~from in
      Ok
        (journaled t (Wal.Merge { into; from; message; ops }) (fun () ->
             Engine.commit t.engine ~branch:into ~message ops))

(* --- checkpoint ----------------------------------------------------------------- *)

let journal_bytes t = Journal.length t.journal

let checkpoint t =
  (* After a failed append the engine may be ahead of the journal: a
     snapshot of it would publish a commit that was refused. *)
  Journal.check t.journal;
  let s = sink t in
  Telemetry.with_span s "wal.checkpoint" @@ fun () ->
  let generation = t.generation + 1 in
  (* 1. Capture the state of this generation (fsynced, atomically renamed
     file by file).  Snapshot backend: full store + heads files.  Pack
     backend: the nodes are already in the pack — make them and the
     offset index durable, then write just the heads file. *)
  (match t.pack with
  | None -> Engine.save ~sync:t.sync t.engine (snapshot_path t.dir generation)
  | Some p ->
      Pack.flush ~sync:t.sync p;
      Pack.sync_index p;
      Engine.save_heads ~sync:t.sync t.engine (heads_path t.dir generation));
  (* 2. Commit point: one atomic manifest replacement naming both the
     snapshot generation and the last journal sequence it captures. *)
  write_manifest ~sync:t.sync t.dir ~generation ~seq:(t.next_seq - 1);
  (* 3. Empty the journal — everything in it is captured — by an atomic
     rewrite to its bare magic.  A crash before this point replays
     against the new snapshot and skips every record by sequence number. *)
  Journal.rewrite t.journal [];
  (* 4. Best-effort removal of the superseded generation. *)
  if t.generation > 0 then begin
    let old = snapshot_path t.dir t.generation in
    Io.remove old;
    Io.remove (old ^ ".heads")
  end;
  t.generation <- generation;
  Telemetry.incr s "wal.checkpoint"

let close t =
  (match t.pack with
  | Some p ->
      Pack.flush ~sync:t.sync p;
      Pack.sync_index p
  | None -> ());
  Journal.close t.journal
