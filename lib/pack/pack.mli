(** The log-structured pack-file store backend.

    A pack directory holds append-only {!Segment} files, a persisted
    {!Pack_index} (so reopen is O(index), not O(data)), and a small
    {e manifest} naming the live segment set — the single atomic commit
    point for compaction.  Durability discipline, file by file:

    - {b segments} are append-only; a crashed append leaves a torn tail
      that reopen clamps (same prefix semantics as the WAL journal).
      A mid-segment verification failure is [`Tampered] — refused, never
      misread.
    - {b index} is advisory: it decides how much reopen scans, never
      what reopen concludes.  Missing, corrupt, or stale-beyond-the-file
      copies are discarded and rebuilt by scanning the segments; the
      rebuilt bytes are identical to an undamaged persisted index.
      A file {e longer} than its indexed coverage only has its tail
      scanned and adopted.
    - {b manifest} is replaced atomically ({!Siri_io.Io.replace}).
      Compaction writes new segments and a new index first, then flips
      the manifest: a crash at any point leaves the old or the new
      segment set, never a mix.  Segment files not named by the manifest,
      and the temp files of an interrupted manifest or index replace,
      are swept on open.

    Every file effect here goes through {!Siri_io.Io}; this module
    decides only what is written and in what order.

    Group fsync: each {!append} call writes its records to the OS without
    an fsync, and so does a roll: the outgoing segment is sealed (its
    bytes pushed to the OS) and fsynced later, by the next {!flush}
    [~sync:true].  Only creating the successor file and flipping the
    manifest fsync inline.  So the WAL's single commit fsync remains the
    per-commit durability point (replay regenerates any node the pack
    lost, in any segment), while checkpoints call {!flush} [~sync:true]
    + {!sync_index} before the WAL manifest flips.  After a power loss a
    sealed segment, not only the last one, may have a torn tail; reopen
    clamps it like any other.

    Concurrency: one appender, readers on any domain.  Each {!append}
    call pushes its records to the OS before it publishes their index
    entries (publish after flush), so a reader that finds an entry finds
    its bytes; readers never touch the appender's channel.  Every live
    segment has one read descriptor, opened eagerly at open and at roll
    and published as an immutable map through an [Atomic]; {!get} reads
    with a positioned {!pread}, so it takes no lock beyond the offset
    index's and no seek.  {!compact} swaps that map and closes the old
    descriptors, so it requires that no reader runs concurrently.

    Cold reads are allocation-light: a read lands in a record buffer its
    domain keeps (checked out with [Atomic.exchange], so systhreads of
    one domain never share it mid-read), is verified there in full, and
    only what the caller asked for is copied out — the node bytes for
    {!get}, the child hashes for {!children}. *)

module Hash = Siri_crypto.Hash
module Store = Siri_store.Store
module Fault = Siri_fault.Fault
module Telemetry = Siri_telemetry.Telemetry

type t

type recovery = {
  clamped_bytes : int;  (** torn tail bytes truncated away, all segments *)
  index_rebuilt : bool;  (** persisted index was missing/corrupt/stale *)
  adopted : int;
      (** records a usable index lacked, found by scanning past its
          coverage (0 on a rebuild) *)
  swept : int;  (** orphan segment files deleted (crashed compaction) *)
}

val open_ :
  ?segment_target:int ->
  ?retry_attempts:int ->
  ?retry_backoff_s:float ->
  ?sink:Telemetry.sink ->
  string ->
  (t * recovery, [ `Tampered of string ]) result
(** Open (creating if needed) the pack directory.  [segment_target]
    (default 8 MiB) caps a segment before rolling to a fresh one.
    Transient read faults are retried [retry_attempts] times (default 3)
    with exponential [retry_backoff_s] (default 0 — tests inject their
    own clock).

    Reopen starts from the persisted index when it is usable, or from
    empty ([index_rebuilt]).  Every live segment, ascending by id, is
    then scanned by {!Segment.scan} from the index's covered length — 0
    on a rebuild or for a segment the index does not name — so a reopen
    after a crash reads the index and the unindexed tails, not the data.
    A torn tail is clamped on disk ([clamped_bytes]) and the records
    found are added, the first occurrence of a hash winning.  A live
    segment shorter than its magic clamps to empty (the magic is
    rewritten) only when its bytes are a prefix of the magic — a torn
    creation; anything else that short is [`Tampered].  Every verdict is
    the same with or without the index.

    [`Tampered] is unrecoverable damage: a corrupt manifest, a manifest
    naming a missing segment, a segment with a foreign or short garbage
    magic (a retired format such as "SIRIPACKSEG1" is named), or a
    verification failure on a complete record the scan reads; the
    message names the file, and for a record the offset. *)

val close : t -> unit
(** {!flush} [~sync:true], {!sync_index}, release descriptors. *)

val dir : t -> string
val count : t -> int
val stored_bytes : t -> int
(** Record bytes live in the index, less each record's length and head
    digest. *)

val segment_ids : t -> int list
(** Live segment ids, ascending; the last one is the active segment. *)

val append : t -> (Hash.t * string * int array) list -> unit
(** Append records for the nodes not already present (content-addressed
    dedup), rolling segments as needed.  A node comes with the offsets of
    its child hashes in its bytes ({!Segment.record_head}).  The call's
    records reach the OS before it returns, and only then become visible
    to {!get}; they are durable after {!flush} [~sync:true].  A roll
    fsyncs only the new segment file and the manifest, never the
    outgoing segment's bytes ([pack.roll]; [pack.fsync] is untouched). *)

val flush : ?sync:bool -> t -> unit
(** With [sync] (default true) fsync every segment sealed by a roll
    since the last such flush, oldest first, then the active segment if
    appends reached it since its last fsync — one [pack.fsync] each, so
    a flush after [r] rolls of written segments costs at most [r + 1]
    fsyncs and a second flush costs none.  Appends are already in the
    OS, so [~sync:false] has nothing left to do. *)

val sync_index : t -> unit
(** Persist the offset index (atomic, fsynced) if it changed. *)

val get : t -> Hash.t -> string option
(** Verified positional read of the node bytes.  [None] when absent.
    The whole record is verified — its length, head digest, hash and
    content hash — and the node bytes are its one allocation beyond a
    small constant.  Raises {!Store.Tampered} when any check fails —
    injected damage can never surface as a wrong read — and
    {!Store.Transient} when injected transients outlast the retry
    budget.  Safe to call from any thread on any domain beside one
    appender. *)

val children : t -> Hash.t -> Hash.t list option
(** Verified positional read of the child hashes, in append order;
    verifies and raises like {!get}. *)

val mem : t -> Hash.t -> bool

val scrub : t -> Hash.t list
(** Re-read and verify every indexed record (gate bypassed), returning
    the hashes whose stored bytes fail verification, sorted. *)

val compact :
  ?on_step:(string -> unit) -> t -> live:Hash.Set.t -> Hash.t list
(** Rewrite the records of [live] nodes into fresh segments (ids above
    every existing one), write the new index, atomically flip the
    manifest, then delete the old segments; returns the dropped hashes.
    [on_step] is called at the kill-points ["begin"],
    ["segments-written"], ["index-written"], ["manifest"], ["cleanup"] —
    crash tests raise from it; a crash strictly before ["manifest"]
    preserves the old set, at or after it the new set.  No {!get} may run
    concurrently: compaction replaces the read descriptors. *)

val pread : Unix.file_descr -> off:int -> len:int -> string
(** [pread fd ~off ~len] reads [len] bytes at file offset [off] without
    moving the descriptor's position, so threads on any domain can share
    [fd].  The result is shorter than [len] only at end of file (a torn
    tail).  The runtime lock is released around each system call, which
    reads at most 64 KiB. *)

val set_read_gate : t -> Fault.io_gate option -> unit
(** Route every raw segment read through a fault-injection gate. *)

val backend : t -> Store.backend
(** The {!Store.backend} view: write-through appends, cold reads,
    scrub merge, GC-driven compaction. *)

val attach : t -> Store.t -> unit
(** [Store.set_backend store (Some (backend t))]. *)
