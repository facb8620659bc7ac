(** Content-addressed immutable node store.

    Every index node is serialized and stored under the SHA-256 of its bytes.
    Writing the same bytes twice stores one copy — this is the page-sharing
    substrate that all SIRI deduplication rests on.  The store additionally
    remembers each node's children hashes, so the reachable page set [P(I)]
    of any index instance (identified by its root hash) can be traversed
    generically, independent of the index type.

    Counters distinguish logical writes ([puts]) from physically new nodes
    ([unique_nodes]); benchmarks snapshot them with {!stats}. *)

open Siri_crypto

(** {2 Typed fault exceptions}

    The store's hot read path stays exception-based for the benchmarks, but
    the exceptions carry the failing hash so fault-aware callers
    ({!Siri_fault.Fault.protect}, [Engine.get_checked], …) can map them into
    the typed error domain
    [[ `Tampered | `Missing | `Transient | `Malformed ]] instead of leaking
    bare [Not_found] / [Failure] / [Invalid_argument]. *)

exception Missing of Hash.t
(** A node that should exist has vanished (injected drop or lost page). *)

exception Transient of Hash.t
(** A read failed transiently (simulated flaky link); retrying may succeed. *)

exception Tampered of Hash.t
(** A stored payload no longer hashes to its key. *)

type t
(** A store is safe to read from several threads, on any domain, while
    one writer inserts: the node table and the filter registry are
    guarded by a mutex, held for single table operations only.  A store
    with a {!backend} reads its nodes outside it.  The decoded-node and
    proof caches are not guarded: a store read concurrently must be
    created with both off. *)

type stats = {
  puts : int;          (** logical writes (including duplicates) *)
  unique_nodes : int;  (** distinct nodes currently stored *)
  stored_bytes : int;  (** sum of the byte sizes of distinct nodes *)
  put_bytes : int;     (** bytes across all logical writes *)
  gets : int;          (** node fetches *)
}

val create : ?cache_bytes:int -> ?proof_cache_bytes:int -> unit -> t
(** [cache_bytes] is the byte budget of the decoded-node cache attached to
    this store ({!cache}).  When omitted, the [SIRI_NODE_CACHE] environment
    variable supplies the budget, and if that too is unset the cache is
    {e disabled} (budget 0) — so fault injection, deployment simulation and
    telemetry conservation keep exact per-read accounting unless caching is
    requested explicitly.  [proof_cache_bytes] is the same opt-in for the
    multiproof cache ({!proof_cache}), with [SIRI_PROOF_CACHE] as its
    environment fallback. *)

val put : t -> ?children:Hash.t list -> string -> Hash.t
(** Store a serialized node; returns its content hash.  [children] lists the
    hashes of the node's direct children (for reachability); they need not be
    present yet. *)

(** {2 Staged (batched) writes}

    The parallel commit pipeline splits a write into a pure phase — encode
    the node and digest its bytes, safe to fan out over pool workers — and
    a sequential install phase into the store.  {!stage_quiet} is the
    worker half (it does not notify the digest observer); {!put_parallel}
    runs the workers and then, on the coordinator, replays the observer
    notifications in deterministic order and installs the nodes.  A batch
    installed this way is observably identical to the same sequence of
    {!put}s: same hashes, same per-node dedup accounting, same counter
    totals — but with a single stats update and one coalesced telemetry
    flush for the whole batch. *)

type staged = {
  digest : Hash.t;
  node_bytes : string;
  node_children : Hash.t list;
}
(** A node whose digest has been computed but which is not yet installed. *)

val stage : ?children:Hash.t list -> string -> staged
(** Digest now (notifying the observer), install later. *)

val stage_quiet : ?children:Hash.t list -> string -> staged
(** {!stage} without notifying the digest observer — the only store entry
    point safe to call from pool worker domains. *)

val put_staged : t -> staged list -> unit
(** Install staged nodes, in list order, with coalesced accounting. *)

val put_parallel :
  t ->
  map:(('a -> 'b * staged list) -> 'a array -> ('b * staged list) array) ->
  ('a -> 'b * staged list) ->
  'a array ->
  'b array
(** [put_parallel t ~map task inputs] is one parallel build step: [map]
    (typically [Pool.map pool]) runs [task] over [inputs] inside a
    [commit.parallel] span, each task returning a result and the nodes it
    staged with {!stage_quiet}; the coordinator then replays their digest
    notifications and installs them with {!put_staged}, in task order, and
    returns the results in input order.  The step is not metered; the
    build meters its maps with {!count_parallel}. *)

val count_parallel : t -> tasks:int -> nodes:int -> unit
(** Meter one parallel map on the attached sink: [parallel.maps] by one,
    [parallel.tasks] by [tasks], [parallel.nodes] by [nodes].  A build
    calls it once per map it counts, which may span several
    {!put_parallel} steps. *)

val put_batch : t -> (string * Hash.t list) list -> Hash.t list
(** [put_batch t [(bytes, children); …]] stages and installs a batch in
    one call, returning the content hashes in order.  Equivalent to
    [List.map (fun (b, c) -> put t ~children:c b)] with a single stats
    update. *)

val get : t -> Hash.t -> string
(** Raises [Not_found] if the hash is unknown. *)

val find : t -> Hash.t -> string option
val mem : t -> Hash.t -> bool

val children : t -> Hash.t -> Hash.t list
(** Direct children as declared at {!put} time.  Raises [Not_found]. *)

val size_of : t -> Hash.t -> int
(** Byte size of a stored node.  Raises [Not_found]. *)

val iter_nodes : t -> (string -> Hash.t list -> unit) -> unit
(** Apply a function to every stored node's bytes and children list (in
    unspecified order) — used to graft one store into another. *)

val stats : t -> stats
val reset_counters : t -> unit
(** Zero the [puts]/[put_bytes]/[gets] counters (stored nodes are kept). *)

val set_get_observer : t -> (Hash.t -> int -> unit) option -> unit
(** Install a callback invoked on every successful {!get} with the node
    hash and its byte size — used by the client/server deployment simulation
    to account for cache misses and transfer costs. *)

val set_put_observer : t -> (Hash.t -> int -> unit) option -> unit
(** Same for {!put} (called on every logical write, duplicate or not). *)

val set_sink : t -> Siri_telemetry.Telemetry.sink -> unit
(** Attach a telemetry sink.  Every successful {!get} increments
    [store.get] / [store.get_bytes]; every {!put} increments [store.put] /
    [store.put_bytes], plus [store.put_unique] / [store.put_unique_bytes]
    when the bytes were not already stored (so
    [store.put - store.put_unique] is the deduplicated write count).
    Attaching {!Siri_telemetry.Telemetry.null} (the default) disables
    metering; a sink never alters stored bytes or hashes. *)

val sink : t -> Siri_telemetry.Telemetry.sink
(** The attached sink (shared by the index implementations bound to this
    store — their per-operation probes report here). *)

(** {2 Read-path sidecars}

    The decoded-node cache and the per-version negative-lookup filters live
    on the store because they describe its contents, but they sit {e beside}
    the node table: a cache hit never calls {!get}, so gated faults,
    deployment observers and [store.get] telemetry meter only the reads that
    actually reach storage.

    {b Coherence:} nodes are content-addressed, so a cached decoding of
    hash [h] can only disagree with [get t h] if the bytes stored under [h]
    changed.  Exactly four operations can do that — {!corrupt},
    {!corrupt_at}, {!truncate_node} and {!remove_node} — and each
    invalidates the cache entry for the hash it touches; {!gc} drops the
    entries of collected nodes.  Every other operation leaves the mapping
    [hash -> bytes] intact, so the cache needs no other invalidation. *)

val cache : t -> Siri_readpath.Node_cache.t
(** The decoded-node cache.  Indexes read through it via {!Decoded};
    callers may {!Siri_readpath.Node_cache.clear} or [resize] it at any
    time without affecting correctness.  {!set_sink} propagates the sink to
    the cache, so [cache.node.hit]/[miss]/[evict] are metered alongside the
    store counters. *)

module Decoded (N : sig
  type node

  val decode : string -> node
end) : sig
  val get : t -> Hash.t -> N.node
  (** [get t h] is [N.decode (Store.get t h)] read through {!cache}: a hit
      returns the shared decoding without touching the node table, a miss
      decodes and inserts it, charged at the encoded size.  Each
      application carries its own cache payload, so two kinds never see
      each other's decodings.  Callers must not mutate a returned node. *)
end
(** The decoded-node read of an index kind with codec [N]. *)

val proof_cache : t -> Siri_readpath.Proof_cache.t
(** The multiproof cache ([Siri_core.Generic.prove_many] reads through
    it).  Coherence follows the decoded-node cache's discipline, scaled to
    proofs: a multiproof may embed {e any} node, so the four byte-mutating
    tamper primitives and {!gc} clear this cache wholesale instead of
    invalidating per hash.  {!set_sink} propagates the sink, metering
    [proof.cache.hit]/[miss]/[evict]. *)

val set_root_filter : t -> Hash.t -> Siri_readpath.Bloom.t -> unit
(** Register the negative-lookup filter for the version rooted at the
    given hash (replacing any previous filter for that exact root).  Built
    by [Engine] commits and [Generic.load_sorted]; consulted by
    [Generic.get]/[get_many] to short-circuit definite misses. *)

val root_filter : t -> Hash.t -> Siri_readpath.Bloom.t option

val remove_root_filter : t -> Hash.t -> unit
(** Unregister the filter of that exact root, if any.  A reader holding
    the filter keeps using it: filters are never mutated. *)

val set_read_gate : t -> (Hash.t -> string -> unit) option -> unit
(** Install a gate consulted on every {!get} {e before} the bytes are
    returned (and before the get observer fires).  The gate may raise one
    of the typed fault exceptions ({!Missing}, {!Transient}, {!Tampered})
    to simulate storage and network faults, or verify the payload against
    its key — this is the injection point used by [Siri_fault.Fault].
    Integrity scrubbing ({!scrub}) bypasses the gate. *)

(** {2 Backend}

    A store may delegate its nodes to a pluggable {!backend} — in practice
    the log-structured pack-file store ([Siri_pack.Pack]), attached via
    its [Pack.attach].  A node then lives in one place, the backend: a
    fresh {!put} is written through and never enters the in-memory table
    (the pack serves it once its append returns; the group-fsync point is
    the pack's own [Pack.flush ~sync:true], reached from a durable
    checkpoint), and every read goes to the backend (metered as
    [store.get.cold]).  {!stats} reports [backend_count] and
    [backend_bytes] (a pack also counts each record's hashes).
    {!iter_nodes}, {!save}, the tamper primitives and {!scrub}'s table
    half see only the in-memory table, which is empty on a backed store:
    its {!scrub} is the backend's own scan, and {!gc} compacts the
    backend.  The decoded-node cache ({!cache}) stays valid wherever the
    bytes live. *)

type backend = {
  backend_name : string;
  backend_read : Hash.t -> string option;
      (** Read of the node bytes alone — the {!get} path, so it
          builds no child list; may raise {!Transient} (the retryable
          read fault) or {!Tampered} (checksum mismatch). *)
  backend_children : Hash.t -> Hash.t list option;
      (** Read of the child hashes alone, for {!children} and the
          reachability walks of {!gc} and {!scrub}; raises like
          [backend_read].  Both reads verify the whole record. *)
  backend_mem : Hash.t -> bool;
  backend_write : (Hash.t * string * Hash.t list) list -> unit;
      (** Append freshly stored nodes, readable when the call returns
          (durable after [backend_flush ~sync:true]). *)
  backend_flush : sync:bool -> unit;
  backend_corrupt : unit -> Hash.t list;
      (** Integrity scan: records failing verification. *)
  backend_compact : live:Hash.Set.t -> Hash.t list;
      (** Reclaim everything outside [live]; returns the dropped hashes so
          the caller can invalidate caches. *)
  backend_count : unit -> int;
  backend_bytes : unit -> int;
}

val set_backend : t -> backend option -> unit
(** Attach a backend, moving the nodes the table holds into it (whatever
    was stored first, such as an engine's initial commit), or replace one
    backend with another.  [None] detaches. *)

val backend_name : t -> string option

(** {2 Page sets and reachability} *)

val reachable : t -> Hash.t -> Hash.Set.t
(** The page set of an instance: all nodes reachable from [root], including
    the root itself.  Unknown hashes and {!Hash.null} children are skipped. *)

val reachable_many : t -> Hash.t list -> Hash.Set.t
(** Union of page sets — computed with a shared visited set, so shared
    subtrees are walked once. *)

val bytes_of_set : t -> Hash.Set.t -> int
(** Total byte size of a page set. *)

(** {2 Garbage collection} *)

val gc : t -> roots:Hash.t list -> int
(** Drop every node not reachable from [roots]; returns how many distinct
    nodes were reclaimed (from the backend, when one is attached), and
    invalidates each in the decoded-node cache. *)

(** {2 Persistence}

    A store can be serialized to a file and reloaded — the on-disk format
    ([SIRISTORE2]) records each node's digest next to its payload and
    children list; every node is re-hashed against the recorded digest on
    load, so a flipped or truncated byte anywhere in the file is detected
    and the file rejected with a typed error. *)

val save : ?sync:bool -> t -> string -> unit
(** Write all nodes to [path] with {!Siri_io.Io.replace}: a crash
    mid-save leaves at most a stale temp file, never a damaged
    destination.  [sync] (default [true]) fsyncs; pass [false] to trade
    crash-durability for speed in tests and benchmarks. *)

val load : ?verify:bool -> string -> t
(** Read a store back, first sweeping the temp files an interrupted
    {!save} to [path] left.  Raises [Failure] on a malformed, truncated or
    damaged file (any payload whose re-hash disagrees with its recorded
    digest).  With [~verify:false] damaged payloads are kept under their
    recorded key instead of rejected — best-effort loading for forensics:
    a subsequent {!scrub} reports exactly the damaged nodes. *)

val load_checked : ?verify:bool -> string -> (t, [ `Malformed of string ]) result
(** {!load} with the untyped exceptions ([Failure], [Sys_error],
    [Invalid_argument]) folded into a typed error. *)

(** {2 Tamper simulation (for tests, examples and the tamper-evidence
    experiments)} *)

val corrupt : t -> Hash.t -> unit
(** Flip one byte of the stored payload while keeping its key — simulating
    an attacker who rewrites a page in place.  Raises [Not_found]. *)

val corrupt_at : t -> Hash.t -> pos:int -> unit
(** Single bit-flip at byte offset [pos mod length] — the fault injector's
    persistent page corruption.  Raises [Not_found]. *)

val truncate_node : t -> Hash.t -> keep:int -> unit
(** Chop a stored payload down to its first [keep] bytes (clamped), keeping
    its key — a torn write.  Raises [Not_found]. *)

val remove_node : t -> Hash.t -> bool
(** Physically delete one node (quarantine / injected page loss); returns
    whether it was present. *)

val get_verified : t -> Hash.t -> (string, [ `Tampered of Hash.t ]) result
(** Fetch and re-hash: detects {!corrupt}ed nodes, the way a Merkle-proof
    verification would. *)

(** {2 Integrity scrub & repair}

    The paper's tamper-evidence claim (§2, §5.7) made operational: because
    every node is addressed by the SHA-256 of its bytes, a full integrity
    audit is a re-hash of every payload plus a child-closure check — no
    external checksums needed. *)

type scrub_report = {
  scanned : int;  (** nodes examined *)
  corrupt : Hash.t list;
      (** payloads whose re-hash disagrees with their key (sorted) *)
  dangling : (Hash.t * Hash.t) list;
      (** (parent, declared child) pairs where the child is absent *)
  orphaned : Hash.t list;
      (** nodes unreachable from [roots]; empty unless [roots] was given *)
}

val scrub : ?roots:Hash.t list -> t -> scrub_report
(** Walk every stored node, re-hash its payload and check that each
    declared child resolves.  Bypasses any installed read gate — scrub sees
    raw storage.  With [roots] it additionally reports unreachable nodes. *)

val scrub_clean : scrub_report -> bool

val pp_scrub_report : Format.formatter -> scrub_report -> unit

val repair : t -> replica:t -> int
(** Quarantine (delete) every corrupt node, then re-graft from [replica]
    any node this store lacks, via {!iter_nodes}.  Grafted payloads are
    keyed by re-hash, so a corrupt replica cannot smuggle bad bytes under a
    good key.  Returns the number of nodes grafted. *)
