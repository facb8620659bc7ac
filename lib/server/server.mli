(** A real multi-client SIRI server over the durable Forkbase engine.

    One process serves many concurrent sessions (one thread per accepted
    connection, Unix-domain or TCP-loopback listeners) on top of a
    durable directory, flat or sharded ({!Siri_shard.Dir}):

    - {b Serving domains.}  Session threads run on
      [Siri_parallel.Pool.recommended ()] serving domains (the
      [SIRI_DOMAINS] rule): the calling domain plus that many minus one
      spawned domains, each spawned when its first session is placed on
      it and given a small fixed minor heap.  The accept loop places each
      new connection on the serving domain with the fewest open
      sessions.  At width 1 nothing is spawned and every session runs on
      the calling domain.  {!stop} has each spawned domain join its own
      session threads, then joins the domains.

    - {b Snapshot-isolated, lock-free reads.}  After every commit the
      writer publishes an immutable snapshot (branch → head +
      {!Siri_shard.Views} read view) through an [Atomic]; sessions on every
      serving domain serve [Get]/[Get_many]/[Prove_many]/[Head] straight
      off that snapshot without a server lock — old roots stay valid
      forever, which is the SIRI property doing the concurrency work.
      Below the snapshot, the store's node table (snapshot backend) and
      the pack's offset index take short table locks; a pack-backed
      store's get takes no store lock, and its cold reads take none (a
      positioned read on a shared descriptor).  The
      engine's store must be created with its decoded-node and proof
      caches off: those are not guarded.

    - {b Single-writer group commit.}  Client write batches queue into a
      bounded queue; one writer thread drains up to [group_max] of them,
      folds all batches for the same branch into {e one} engine commit —
      one batched index build, one WAL frame, one fsync — and acks every
      folded batch with the same commit id and the group size.  The queue
      bound is backpressure: a full queue refuses new writes with
      [Err Overload] instead of hiding them in unbounded latency, and a
      request whose [deadline_ms] expired before the writer reached it is
      refused with [Err Timeout], never silently applied late.

    - {b Idempotent commits.}  Request ids ride inside the group-commit
      message (["serve:id1,id2,…"]), so the dedup table rebuilds from the
      commit history on restart: a client that retries an unacknowledged
      commit after a crash gets it applied {e at most once}, even though
      the original may or may not have reached the journal.

    - {b Graceful degradation.}  If the commit path reports [`Tampered],
      the server enters read-only mode: writes are refused with
      [Err Read_only], reads keep being served off the last good
      snapshot.  A transient fault is retried and then refused with
      [Err Overload] on a flat directory; on a sharded one it also
      degrades to read-only ({!Siri_shard.Dir.retryable}).  An I/O error
      on the journal or the pack ([Unix_error] or [Sys_error], a failed
      fsync among them) refuses its group with [Err Read_only] and
      enters read-only mode too: the engine may be ahead of the disk.
      Any other exception on the commit path does the same for every
      batch of the group not yet answered, and the writer lives on, so
      no session waits forever and {!stop} returns.  Damaged
      request frames are refused ([`Tampered] / [`Malformed]) and the
      session closed; no byte from the wire is ever parsed unverified
      and no exception escapes the accept loop.

    Telemetry (on the engine store's sink): [server.req.<op>] counters
    and latency histograms, [server.commit.acked] / [server.commit.groups]
    / [server.commit.dedup] counters with the [server.commit.group_size]
    histogram, [server.overload], [server.timeout], [server.readonly.enter],
    [server.refused.tampered] / [server.refused.malformed], and
    [server.sessions].  Conservation: [server.commit.groups] = WAL frames
    appended by the server, and [server.commit.acked] = the histogram sum
    of [server.commit.group_size] (pinned in [test_server]). *)

type addr = [ `Unix of string | `Tcp of int  (** loopback port; 0 = pick *) ]

type config = {
  max_queue : int;  (** pending write batches before [Overload] (256) *)
  group_max : int;  (** write batches folded per group commit (64) *)
  idempotency_cap : int;  (** request ids remembered in memory (4096) *)
  session_max : int;  (** concurrent sessions before refusing (64) *)
}

val default_config : config

type t

val start :
  ?config:config -> dir:Siri_shard.Dir.t -> listen:addr list -> unit -> t
(** Bind every address, recover the idempotency table from the commit
    history, publish the initial snapshot and spawn the accept and writer
    threads.  The directory must have been opened by the caller (sync
    mode and fault gates are its business); the server writes through
    {!Siri_shard.Dir.commit} only and closes it at {!stop}.  A Unix
    socket path left behind by a killed server is probed and reclaimed
    (unlinked) if nothing answers on it; raises [Unix.Unix_error] if a
    bind fails, including when a {e live} server already owns the path.

    On a sharded directory, group commit batches are partitioned per
    shard and the shard commits run concurrently under the single
    writer; [Head] answers the composite root (as both id and root) with
    the global sequence number as version, and [Prove_many] returns an
    encoded {!Siri_shard.Shard_proof} (the response's [root] is the
    composite to verify it against — the leading payload byte
    distinguishes it from a flat multiproof).  Open a sharded directory
    with [~runner:`Threads]: shard journal writes and fsyncs still
    overlap, while index builds stay on the one domain whose
    single-writer/many-reader store discipline the lock-free snapshot
    reads rely on. *)

val listening : t -> addr list
(** The bound addresses, with [`Tcp 0] resolved to the actual port. *)

val sink : t -> Siri_telemetry.Telemetry.sink
(** The engine store's sink — where all [server.*] telemetry lands. *)

val read_only : t -> bool

val pause_writer : t -> unit
(** Test/bench hook: hold the writer so the queue fills deterministically
    (backpressure and deadline tests).  {!stop} resumes it. *)

val resume_writer : t -> unit

val queue_length : t -> int
(** Write batches currently queued (test/bench observability). *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, refuse new writes, drain the queue
    (every queued batch is still committed and acked), close all
    sessions, join every thread and close the durable journal.
    Idempotent. *)
