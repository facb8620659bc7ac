(** The sharded keyspace engine: [N] independent {!Siri_wal.Durable}
    engines — each with its own store, index, WAL journal and optional
    pack backend — behind one keyspace, one branch namespace and one
    {e composite} Merkle root per branch.

    {b Layout.}  A sharded directory holds

    - [SHARDS] — the partition manifest ({!Partition.to_string}), fixed
      at create time and checked on every reopen;
    - [shard.0] … [shard.N-1] — one complete {!Siri_wal.Durable}
      directory per shard;
    - [top] — the composite journal, a {!Siri_wal.Journal} file (magic
      [SIRITOPJ1]) with one record per commit or fork carrying its
      global sequence number, branch, composite root and the full
      shard-root vector.

    {b Commit protocol.}  Every commit takes the next {e global}
    sequence number, routes its batch with {!Partition.split_ops}, and
    runs one {!Siri_wal.Durable.commit} per touched shard {e
    concurrently} (see [runner] below), each stamped with the global
    number.  Only after every shard commit has landed is the composite
    record appended (flushed, fsynced when [sync]) to [top] — the
    commit point of the whole operation.

    {b Recovery invariant: all-or-clamped.}  [open_] sweeps the root's
    stale tmp files, then scans [top] by the {!Siri_wal.Journal} rules —
    a torn tail is clamped, and so is a torn header (an empty journal) —
    to find the last {e published} sequence [S],
    then opens every shard with [replay_cap = S]: shard-journal records
    beyond [S] were never published and are truncated at their frame
    boundary, so a SIGKILL anywhere inside the commit fan-out rolls
    {e every} shard back to the same global prefix — never a mix of
    shard generations.  Finally each branch's composite root is
    recomputed from the recovered shard roots and checked against the
    journal's last published value; a mismatch refuses to open
    ([`Malformed]), because it means some shard's state is not the one
    the composite commits to.

    Shard placement, the scheme and the count are all bound into the
    composite digest ({!Composite}), and proofs are two-layer
    ({!Shard_proof}).

    Handles are single-writer, exactly like {!Siri_wal.Durable}: one
    committer at a time, concurrent readers only through views the
    caller snapshots itself.  If {!commit} raises, the handle must be
    discarded — the directory recovers to the published prefix on the
    next {!open_}. *)

module Kv = Siri_core.Kv
module Hash = Siri_crypto.Hash
module Generic = Siri_core.Generic
module Durable = Siri_wal.Durable
module Wal = Siri_wal.Wal

type t

type runner = [ `Pool | `Threads | `Inline ]
(** How the per-shard commit fan-out runs.  [`Pool] (default): a
    {!Siri_parallel.Pool} sized one domain per shard (clamped to the
    host) — the standalone/bench path, where no concurrent reader ever
    observes the shard stores mid-commit.  [`Threads]: one systhread
    per touched shard — journal writes and fsyncs overlap but index
    builds interleave on one domain, preserving the single-domain
    store discipline the server's lock-free snapshot readers rely on.
    [`Inline]: sequential, for differential tests. *)

type head = {
  seq : int;  (** global sequence number of the publishing record *)
  composite : Hash.t;
  roots : Hash.t array;
}

type recovery = {
  last_seq : int;  (** last published global sequence number *)
  top_clamped_bytes : int;  (** torn tail clamped off the top journal *)
  capped : int;  (** unpublished shard-journal records rolled back *)
  shards : Durable.recovery array;
}

val open_ :
  ?sync:bool ->
  ?backend:Durable.backend ->
  ?runner:runner ->
  ?spec:Partition.t ->
  dir:string ->
  empty_index:(unit -> Generic.t) ->
  unit ->
  (t, Wal.error) result
(** Open (creating if needed) and recover as described above.
    [empty_index] is a {e factory}: it is called once per shard and
    must return a fresh instance (own store) each time.  [spec]
    (default [hash:4]) and [backend] (default [`Snapshot]) apply only
    when the directory is created: an existing manifest and the shards'
    own layout win, and an explicit value that contradicts them is
    refused ([`Malformed]) rather than silently re-routed.  A flat
    durable directory ({!Siri_wal.Durable.detect}) is refused too:
    opening never writes a second layout into a directory. *)

val exists : string -> bool
(** [exists dir] — [dir] holds a sharded layout (its partition
    manifest). *)

val recovery : t -> recovery
val spec : t -> Partition.t
val dir : t -> string
val shards : t -> Durable.t array
(** The per-shard engines, for stats/scrub-style read-only access. *)

val branches : t -> string list
val last_seq : t -> int
val sink : t -> Siri_telemetry.Telemetry.sink
(** Shard 0's store sink; the factory shares one sink across shards
    when aggregate telemetry is wanted. *)

val view : t -> branch:string -> Views.t
(** The sharded read view at the branch head — the unit the server
    snapshots and the CLI reads. *)

val head : t -> branch:string -> head
val get : t -> branch:string -> Kv.key -> Kv.value option

val get_many :
  t -> branch:string -> Kv.key list -> (Kv.key * Kv.value option) list
(** Batched point lookups: keys are grouped per shard once and the
    per-shard single-walk batches dispatch through the same runner as
    the commit fan-out ([`Pool]: one domain per touched shard;
    [`Threads]: one systhread; [`Inline]: sequential).  Counts
    [shard.get_many.parts] by touched shards. *)

val scan :
  ?lo:Kv.key -> ?hi:Kv.key -> t -> branch:string -> (Kv.key * Kv.value) Seq.t
(** Streaming ordered read over the half-open interval [[lo, hi)] across
    the shards, in global key order ({!Views.scan}).  Range scheme:
    touches exactly the contiguous shard interval the bounds can route
    to — a single-shard interval streams from one shard (telemetry:
    [shard.scan.fanout]); hash scheme: lazy k-way merge of all shards.
    Raises {!Generic.Unsupported} for MBT. *)

val prove_many : t -> branch:string -> Kv.key list -> Shard_proof.t

val commit : t -> branch:string -> message:string -> Kv.op list -> head
(** Fan out, then publish; see the commit protocol above.  Ops on
    untouched shards cost nothing (an empty batch routes to shard 0 so
    the commit is still journaled somewhere). *)

val fork : t -> from:string -> string -> head
(** Forks hit {e every} shard (the branch must exist everywhere), under
    one global sequence number and one composite record. *)

val checkpoint : t -> unit
(** Checkpoint every shard (concurrently, same runner), then compact
    the top journal to one record per branch — an atomic
    {!Siri_wal.Journal.rewrite}, the same rewrite that empties each
    shard's journal. *)

val generation : t -> int
(** Layout generation: 0 is the flat as-created layout, each successful
    {!reshard} moves to the next generation under [dir/gen.<g>/]. *)

val reshard : t -> shards:int -> (t, Wal.error) result
(** Online reshard [N -> M]: stream every live entry of every branch out
    of the old shards (through {!scan}, in key order), split it by the
    new partition function, and bulk-load [M] fresh shards — the loads
    fan out through the same runner as commits — in a staging directory
    [dir/gen.<g+1>.tmp].  Once every staging shard is checkpointed and
    the staging composite journal is written, the staging directory is
    renamed to [dir/gen.<g+1>] and the [SHARDS] manifest is atomically
    replaced naming the new spec and generation — {e the} commit point.
    A SIGKILL at any byte offset before it leaves the old layout live
    (staging is swept on the next open); after it, the new layout is
    live and the old one is swept.  Never a mix.

    Branch ancestry is flattened: every non-master branch is recreated
    as a fork of the (still empty) master plus one bulk commit, so each
    branch's content lands through the index's canonical [bulk_load].
    Scheme is preserved; only the count changes.

    On success the passed handle is {e consumed} (closed) and a fresh
    handle on the new layout is returned — reopening also re-verifies
    every branch's composite against the migrated shard roots.  On
    [Error] the staging directory has been removed, the old layout was
    never touched, and the passed handle remains usable. *)

val close : t -> unit
