(** Content-addressed decoded-node cache — the shared read-path layer.

    Every index node is immutable and addressed by the SHA-256 of its
    bytes, so a mapping [hash -> decoded node] is {e safe forever}: there
    is no invalidation protocol, no version epoch, no coherence traffic.
    The only ways a cached entry can become wrong are deliberate tamper
    simulation and store GC, and [Siri_store.Store] invalidates the cache
    on exactly those primitives.

    Decoded nodes of the five index kinds have different types, so the
    cache carries an {e extensible} payload: each application of
    [Siri_store.Store.Decoded] declares its own constructor and matches it
    back on lookup.  A payload of the wrong kind (possible only if two
    codecs decoded the same bytes — distinct wire layouts make this
    practically unreachable) is treated as a miss and overwritten.

    Capacity is a byte budget approximated by the {e encoded} size of each
    node (the decoded heap form tracks it closely for our fixed layouts);
    eviction is O(1) LRU via {!Lru_cache}.  Hit/miss/evict counts are kept
    in [Atomic]s so any domain can read stats, and are mirrored to an
    attached telemetry sink as [cache.node.hit] / [cache.node.miss] /
    [cache.node.evict].  Like the store's node table, the cache itself
    must only be touched by the coordinating domain. *)

type repr = ..
(** The open union of decoded node types; each [Store.Decoded]
    application adds its own constructor. *)

type t

val default_budget : int
(** The default byte budget (64 MiB) used when [SIRI_NODE_CACHE] is unset
    and no explicit capacity is given to an enabling caller. *)

val budget_from_env : unit -> int option
(** Parse the [SIRI_NODE_CACHE] environment variable — the cache budget in
    bytes, mirroring [SIRI_DOMAINS]: unset or unparsable means [None],
    [0] disables the cache, negative values are clamped to [0]. *)

val create : ?budget:int -> unit -> t
(** [budget] defaults to the [SIRI_NODE_CACHE] override when set, else
    [0] (disabled) — existing stores opt in explicitly, so fault
    injection, deployment simulation and telemetry conservation keep
    their exact read counts unless a caller asks for caching. *)

val enabled : t -> bool
(** [budget > 0]. *)

val budget : t -> int
val size : t -> int
val cost : t -> int

val find : t -> Siri_crypto.Hash.t -> repr option
(** Refreshes recency and counts a hit or miss. *)

val insert : t -> Siri_crypto.Hash.t -> bytes:int -> repr -> unit
(** [bytes] is the encoded node size — the cost charged against the
    budget. *)

val remove : t -> Siri_crypto.Hash.t -> unit
(** Targeted invalidation (tamper simulation, node quarantine). *)

val remove_many : t -> Siri_crypto.Hash.t list -> unit
(** Batch invalidation — used by [Store.gc] for nodes reclaimed from the
    cold pack tier, which may be cached here without ever having been in
    the hot table. *)

val clear : t -> unit
val resize : t -> budget:int -> unit

val hits : t -> int
val misses : t -> int
val evictions : t -> int
(** Monotonic totals since creation; {!clear}/{!resize} do not reset
    them. *)

val set_sink : t -> Siri_telemetry.Telemetry.sink -> unit
(** Mirror subsequent hits/misses/evictions to [cache.node.*] counters. *)
