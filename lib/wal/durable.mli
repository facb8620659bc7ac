(** Crash-consistent durability for {!Siri_forkbase.Engine}: every commit,
    fork and merge is appended to a checksummed write-ahead journal
    ({!Wal}) {e before} it is applied in memory, so a crash at any byte
    boundary recovers to an exact committed prefix of the history.

    {b Layout.}  A durable engine lives in a directory:

    - [journal] — the append-only commit journal, a {!Journal} file with
      the {!Wal} codec;
    - [MANIFEST] — {e one} atomically-replaced file naming the current
      snapshot generation and the last journal sequence number it
      captures (closing the two-file store/heads atomicity hole of
      {!Siri_forkbase.Engine.save});
    - [store.<gen>] / [store.<gen>.heads] — the snapshot of that
      generation, written by {!Siri_forkbase.Engine.save}.

    {b Recovery} ({!open_}): load the manifest's snapshot if one exists
    (else recreate the deterministic initial engine), then replay every
    journal record whose sequence number the snapshot does not already
    capture.  A torn journal tail is clamped silently (and truncated on
    disk so later appends extend the valid prefix); mid-journal corruption
    surfaces as [`Tampered offset] — recovery never raises.

    {b Checkpoint} ({!checkpoint}): write the next-generation snapshot
    (fsync), atomically publish the manifest (tmp+fsync+rename — the
    commit point), then atomically rewrite the journal to its bare magic
    ({!Journal.rewrite}) and drop the old generation.
    A crash anywhere in that sequence recovers: before the manifest rename
    the old generation + full journal are intact; after it, replay skips
    everything the new snapshot captures.

    Instrumentation (on the engine store's telemetry sink): [wal.append],
    [wal.append_bytes], [wal.fsync], [wal.checkpoint] counters; under
    [sync] a [wal.fsync_wait] histogram, the seconds each journaled write
    waited for its frame's fsync after applying (0 when the fsync was
    hidden behind the apply); recovery
    runs inside a [recovery] span and bumps [recovery.replayed] (records
    re-applied), [recovery.skipped] (records the snapshot already
    captured), [recovery.clamped] (torn-tail clamp events) and
    [recovery.clamped_bytes]. *)

open Siri_core
module Engine = Siri_forkbase.Engine

type t

type backend = [ `Snapshot | `Pack ]
(** Where checkpointed node payloads live.  [`Snapshot] (the default)
    writes a full [store.<gen>] file per checkpoint.  [`Pack] keeps the
    nodes in a log-structured {!Siri_pack.Pack} directory ([<dir>/pack])
    written through on every commit: a checkpoint then only needs to
    fsync the pack, persist its offset index and write the tiny heads
    file — no O(data) snapshot rewrite.  The journal frame's fsync is
    the single per-commit fsync; pack appends are only pushed to the OS
    (replay regenerates anything lost, and a record whose frame never
    became durable is named by no head, so compaction drops it).  The
    backend is chosen when a directory is created and read back from
    disk ({!detect}) on every later open. *)

type recovery = {
  generation : int;  (** snapshot generation loaded; 0 = none *)
  replayed : int;  (** journal records re-applied *)
  skipped : int;  (** records already captured by the snapshot *)
  clamped_bytes : int;  (** torn-tail bytes discarded *)
  capped : int;  (** records dropped by [replay_cap] — journaled here but
                     never published by the outer commit point *)
}

val open_ :
  ?sync:bool ->
  ?backend:backend ->
  ?replay_cap:int ->
  dir:string ->
  empty_index:Generic.t ->
  unit ->
  (t, Wal.error) result
(** Open (creating the directory if needed) and recover.  [backend]
    (default [`Snapshot]) applies only when the directory is created: an
    existing directory answers for itself ({!detect}), a stated backend
    that contradicts it is refused with [`Malformed], and so is a
    sharded root — all before anything is written.  [empty_index]
    must be a {e fresh} instance of the index kind the engine was built
    with — its store receives the recovered state, exactly as in
    {!Siri_forkbase.Engine.load}.  [sync] (default [true]) controls
    [fsync] on every journal append and snapshot write; [false] trades
    power-loss durability for speed (tests, benchmarks).  Stale temp
    files from interrupted atomic writes are cleaned up.

    [replay_cap] is an {e outer} commit point: journal records whose
    sequence number exceeds it are not replayed and are truncated from
    the journal at their exact frame boundary (counted in
    {!recovery.capped}).  The sharded engine passes the last sequence
    its composite journal published, so a crash between a shard-journal
    append and the composite commit point rolls the shard back instead
    of resurrecting an unpublished commit. *)

val ensure_dir : sync:bool -> string -> (unit, Wal.error) result
(** Create a directory and its missing ancestors ({!Siri_io.Io.mkdir},
    so under [sync] each new entry is durable); [`Malformed] when the
    path is a file or cannot be created.  Every durable root is made
    through this. *)

val detect : string -> backend option
(** The backend a directory holds: [`Pack] when it has a [pack/]
    directory, [`Snapshot] when it has a [MANIFEST] or a [journal]
    alone, [None] when it holds no flat durable layout. *)

val recovery : t -> recovery
(** What {!open_} found. *)

val engine : t -> Engine.t
(** The underlying engine, for reads (get / history / checkout / …).
    Mutating it directly bypasses the journal — write through {!commit},
    {!fork} and {!merge_branches} instead. *)

val dir : t -> string

val backend : t -> backend

val pack : t -> Siri_pack.Pack.t option
(** The attached pack, when opened with [~backend:`Pack] — for scrub,
    compaction and fault-gate wiring. *)

val journal_path : string -> string
(** [journal_path dir] — where the journal of a durable directory lives
    (for the crash simulator). *)

val pack_dir : string -> string
(** [pack_dir dir] — where the pack of a [`Pack]-backend directory lives
    (for the crash simulator). *)

val journal_bytes : t -> int
(** Current size of the journal file in bytes. *)

val commit :
  ?seq:int -> t -> branch:string -> message:string -> Kv.op list ->
  Engine.commit
(** Journal, then apply, and return once both are done.  The frame is
    written and flushed before the apply starts; under [sync] its
    [fsync] runs on a helper thread ({!Siri_io.Io.fsync_begin}) while the
    apply rebuilds the index, and is joined before the call returns.
    [fork], [commit_bulk] and [merge_branches] journal the same way.  An
    apply that raises leaves the engine unchanged; its frame is then
    truncated off the journal and the exception re-raised, so a retry
    journals the write once.  A failed journal write or fsync raises [Unix.Unix_error] or
    [Sys_error] and leaves the engine possibly ahead of the journal: the
    frame is cut off the file and every later journaled write or
    {!checkpoint} on this handle raises [Sys_error]; reopen to recover
    the durable prefix.  [seq] stamps an externally-allocated sequence
    number (the sharded engine's global commit counter); it must not be
    below the journal's own watermark — [Invalid_argument] otherwise. *)

val commit_bulk :
  ?seq:int -> t -> branch:string -> message:string ->
  (Kv.key * Kv.value) list -> Engine.commit
(** Journal a {!Wal.record.Bulk} record, then apply through
    {!Engine.commit_bulk}: on a branch still at version 0 the entries go
    through the index's canonical [bulk_load] (and recovery replays them
    the same way), which is what the online reshard streams each migrated
    branch into. *)

val fork : ?seq:int -> t -> from:string -> string -> unit
val get : t -> branch:string -> Kv.key -> Kv.value option

val merge_branches :
  t -> into:string -> from:string -> policy:Kv.merge_policy ->
  (Engine.commit, Kv.conflict list) result
(** Conflict checking happens {e before} journaling: a failed merge
    leaves no journal record.  A successful merge is journaled as its
    resolved write batch ({!Wal.record.Merge}), so replay needs no
    serialized policy. *)

val checkpoint : t -> unit
(** Atomic snapshot + journal truncation, as described above. *)

val close : t -> unit
(** Flush the pack ([fsync] when [sync]) and its index, and close the
    journal, which every commit already pushed.  The engine stays
    usable for reads; further durable writes require a fresh {!open_}. *)
