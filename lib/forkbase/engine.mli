(** A Forkbase-like versioned storage engine over any SIRI index.

    Data lives in named branches; every write batch creates a commit — an
    immutable, content-addressed object pointing at its parent commit and at
    the index root for that version.  Because commits and index nodes share
    the same content-addressed store, the full history deduplicates at node
    granularity and any commit can be checked out in O(1).

    This is the integration layer of Section 5.6: benchmarks run the same
    key-value workloads through an engine backed by each index kind. *)

open Siri_crypto
open Siri_core
module Store = Siri_store.Store

type t

type commit = {
  id : Hash.t;  (** content hash of the commit object *)
  parent : Hash.t option;
  index_root : Hash.t;
  message : string;
  version : int;  (** 0 for the initial commit of a branch *)
}

val create : empty_index:Generic.t -> t
(** A fresh engine whose ["master"] branch starts at the given (usually
    empty) index instance.  The engine uses the instance's store. *)

val store : t -> Store.t
val branches : t -> string list

val fork : t -> from:string -> string -> unit
(** [fork t ~from name] creates branch [name] at [from]'s head.  O(1): only
    a new head pointer; all data is shared.  Raises [Invalid_argument] if
    [name] exists or [from] does not. *)

val head : t -> string -> commit
val history : t -> string -> commit list
(** Head first, ending at the initial commit. *)

val index : t -> string -> Generic.t
(** The index instance at a branch's head. *)

val checkout : t -> Hash.t -> Generic.t
(** The index instance of any past commit. *)

val commit : t -> branch:string -> message:string -> Kv.op list -> commit
(** Apply a write batch on a branch and advance its head.  The new head
    root gets a copy of the old one's negative-lookup filter plus the
    written keys; the old root's filter is unregistered unless another
    head still has that root, so only branch heads keep a filter. *)

val commit_bulk :
  t -> branch:string -> message:string -> (Kv.key * Kv.value) list -> commit
(** Load [entries] as one commit.  On a branch still at version 0 this
    goes through the index's [bulk_load] — the canonical bottom-up build
    that the parallel commit pipeline accelerates; on a non-empty branch
    it degrades to a plain put-batch so existing records are kept. *)

val get : t -> branch:string -> Kv.key -> Kv.value option
(** Point lookup at a branch head, through the full read path: the
    version's negative-lookup filter (when one is registered) short-
    circuits definite misses, and the lookup is timed into the tiered
    [read.lookup.hit]/[read.lookup.miss] telemetry. *)

val get_many : t -> branch:string -> Kv.key list -> (Kv.key * Kv.value option) list
(** Batched point lookups at a branch head: filter-rejected keys are
    answered [None] without touching the index, the survivors walk the
    tree once sharing decoded prefix nodes.  One result pair per input
    key, in input order; equivalent to [List.map (fun k -> (k, get t
    ~branch k))]. *)

val scan :
  ?lo:Kv.key -> ?hi:Kv.key -> t -> branch:string -> (Kv.key * Kv.value) Seq.t
(** Streaming ordered read over [[lo, hi)] at a branch head — see
    {!Generic.scan}.  Raises {!Generic.Unsupported} on MBT engines. *)

val range_count :
  ?lo:Kv.key -> ?hi:Kv.key -> ?limit:int -> t -> branch:string -> int
(** Entry count of [[lo, hi)] at a branch head, bounded by [limit] —
    see {!Generic.range_count}. *)

val put : t -> branch:string -> Kv.key -> Kv.value -> commit

val diff_branches : t -> string -> string -> Kv.diff_entry list

val merge_base : t -> string -> string -> commit
(** The nearest common ancestor of two branches' heads in the commit DAG
    (at worst the initial commit, which every branch descends from). *)

val merge_ops :
  t -> into:string -> from:string -> policy:Kv.merge_policy ->
  (Kv.op list, Kv.conflict list) result
(** The resolved, non-conflicting write batch a {!merge_branches} of the
    same arguments would commit on [into] — exposed so the write-ahead
    journal can record a merge as a concrete replayable batch (a
    [Kv.Resolve] closure cannot be serialized).  Does not modify the
    engine. *)

val merge_message : into:string -> from:string -> string
(** The commit message {!merge_branches} uses — replaying a journaled
    merge with this message byte-reproduces the original merge commit. *)

val merge_branches :
  t -> into:string -> from:string -> policy:Kv.merge_policy ->
  (commit, Kv.conflict list) result
(** Three-way merge: changes are computed against {!merge_base}, so a
    record only conflicts when BOTH branches changed it since they diverged
    (to different values, or delete-vs-modify).  Non-conflicting changes
    from both sides are combined; on success the merged version is
    committed on [into].  Under [Fail_on_conflict], a delete-vs-modify
    conflict reports the deleted side as the empty string. *)

(** {2 Optimistic transactions}

    A transaction snapshots a branch head, tracks the keys it reads and
    buffers its writes; {!commit_txn} re-validates the read set against the
    current head (first-committer-wins OCC) and either commits atomically or
    reports the conflicting keys. *)

type txn

val begin_txn : t -> branch:string -> txn
val txn_get : txn -> Kv.key -> Kv.value option
val txn_put : txn -> Kv.key -> Kv.value -> unit
val txn_del : txn -> Kv.key -> unit

val commit_txn :
  txn -> message:string -> (commit, [ `Conflict of Kv.key list ]) result
(** Fails iff another commit changed a key this transaction read (or wrote)
    since it began.  A failed transaction leaves the branch untouched and
    can simply be retried from a fresh {!begin_txn}. *)

(** {2 Persistence}

    An engine persists as two files: the content-addressed store
    ([path], via {!Siri_store.Store.save}) and the branch heads
    ([path ^ ".heads"], one "branch<TAB>commit-hex" line each). *)

val save : ?sync:bool -> t -> string -> unit
(** Both files are written with the crash-safe tmp+fsync+rename protocol
    of {!Siri_io.Io.replace} ([sync] defaults to [true]).  The two
    renames are still not atomic {e together} — {!load} degrades
    gracefully on the resulting inconsistency, and the [Siri_wal.Durable]
    layer closes the hole entirely with a single manifest file. *)

val load : empty_index:Generic.t -> string -> t
(** [empty_index] supplies the index kind (and configuration) the engine
    was built with; its store is ignored in favour of the loaded one.
    Stale temp files from interrupted saves are cleaned up.  A head whose
    commit object is absent from (or undecodable in) the store file — the
    signature of a crash between the two {!save} renames — is clamped:
    the branch is dropped and the remaining consistent heads are kept.
    Raises [Failure] on malformed files or when no head survives. *)

val load_checked :
  empty_index:Generic.t -> string -> (t, [ `Malformed of string ]) result
(** {!load} with the untyped exceptions ([Failure], [Sys_error],
    [Invalid_argument], [Wire.Reader.Truncated]) folded into a typed
    error, mirroring {!Siri_store.Store.load_checked}. *)

val save_heads : ?sync:bool -> t -> string -> unit
(** Just the branch-heads TSV, written atomically at [path] — the
    {!save} half a pack-backed durable engine still needs when node
    payloads live in the pack rather than a snapshot file. *)

val load_heads : t -> string -> string list
(** Restore branch heads from the TSV at [path] into [t], resolving each
    commit through [t]'s store (falling through to its cold backend when
    one is attached).  A head whose commit cannot be resolved is clamped
    (dropped); the clamped branch names are returned.  Raises [Failure]
    on malformed files or when no head survives. *)

(** {2 Graceful degradation}

    Read operations against a store with injected (or real) faults: a
    transient fetch failure is retried up to [attempts] times (default 3),
    and any remaining fault surfaces as a typed
    {!Siri_fault.Fault.type-error} instead of an untyped exception aborting
    the caller.  The plain (exception-raising) API above stays available
    for the benchmark hot paths. *)

val get_checked :
  ?attempts:int -> t -> branch:string -> Kv.key ->
  (Kv.value option, Siri_fault.Fault.error) result

val history_checked :
  ?attempts:int -> t -> string ->
  (commit list, Siri_fault.Fault.error) result

(** {2 History management} *)

val verify_history : t -> string -> (int, [ `Tampered of Hash.t ]) result
(** Walk a branch's commit chain re-hashing every commit object and every
    index node reachable from each version: returns the number of commits
    checked, or the first tampered node found. *)

val prune : t -> keep:int -> int
(** Retain only the newest [keep] commits of every branch (at least the
    head), rewrite their parent links to ground the truncated chains, and
    garbage-collect everything unreachable.  Returns the number of store
    nodes reclaimed. *)

val dedup_ratio : t -> float
(** η over the head versions of all branches. *)

val total_versions : t -> int
