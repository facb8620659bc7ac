(** A uniform, first-class view of any SIRI index instance.

    The four structures (MPT, MBT, POS-Tree, MVMB+-Tree) have different
    configurations and node layouts, so each library exposes its own typed
    write API plus a [generic] constructor producing this record.
    Benchmarks, the Forkbase engine, and the SIRI property checkers work
    exclusively against this interface.

    Reads are built once, here: a kind supplies one batched point walk
    and, if it has a key order, one scan, and {!make} derives lookup, path
    length, batched get, single and batched proofs with their verifiers,
    ranges, [to_list] and [cardinal] from them.  On the write side a kind
    supplies [batch], [bulk_load] and [diff]; {!make} derives [merge].

    Instances are immutable: every write returns a fresh handle whose [root]
    identifies the new version; old handles stay valid (copy-on-write node
    sharing in the underlying store). *)

open Siri_crypto

exception Unsupported of string
(** Raised by {!field-scan} on index kinds with no key order (MBT): the
    paper's Section 5 prediction — hash-bucketed structures cannot serve
    ordered reads — surfaces as a typed refusal rather than a silent
    O(N) filter.  The payload names the index kind. *)

type t = {
  name : string;  (** e.g. ["pos-tree"] *)
  store : Siri_store.Store.t;
  root : Hash.t;  (** {!Hash.null} for an empty instance *)
  lookup : Kv.key -> Kv.value option;
  get_many : Kv.key list -> (Kv.key * Kv.value option) list;
      (** batched point lookups: one result pair per input key, in input
          order ([None] for absent keys).  The batch is answered in a
          single tree walk — keys are sorted and partitioned by child at
          each internal node, so sibling keys share every decoded prefix
          node instead of re-walking from the root.  Semantically
          equivalent to [List.map (fun k -> (k, lookup k))] (qcheck). *)
  path_length : Kv.key -> int;
      (** number of nodes traversed by [lookup] (Figure 9) *)
  batch : Kv.op list -> t;  (** apply a write batch, yielding a new version *)
  bulk_load : (Kv.key * Kv.value) list -> t;
      (** build a fresh version containing exactly the given entries
          (current contents are ignored) through the index's bulk
          pipeline — the entry point the parallel commit path uses.  A key
          given more than once keeps its last value, as in [batch], so the
          contents always equal {!of_entries}'s.  For history-independent
          structures the resulting root equals the [batch]-built one; the
          MVMB+-Tree documents its canonical bulk shape separately. *)
  to_list : unit -> (Kv.key * Kv.value) list;  (** sorted by key *)
  cardinal : unit -> int;
  diff : Hash.t -> Kv.diff_entry list;
      (** differing records against another version of the same index kind,
          identified by its root *)
  merge :
    Kv.merge_policy -> Hash.t -> (t, Kv.conflict list) result;
      (** union of the records of both versions (Section 4.1.4), derived
          by {!make} from [diff] and [batch]: a record only the other
          version holds is added, one both hold with different values is
          resolved by the policy, and the resulting puts are applied by
          one [batch] in diff order.  A record only this version holds is
          kept.  [Error] lists the conflicts in key order and writes
          nothing. *)
  prove : Kv.key -> Proof.t;
  verify : root:Hash.t -> Proof.t -> bool;
      (** store-independent proof check against a trusted root digest *)
  prove_many : Kv.key list -> Multiproof.t;
      (** batched proof over a key set in one walk: shared path nodes are
          carried once ({!Multiproof}); absence claims carry their
          witnessing nodes.  Keys are sorted and deduplicated.  This is
          the raw (uncached) closure — prefer the module-level
          {!prove_many}, which memoizes through the store's proof
          cache. *)
  verify_many : root:Hash.t -> Multiproof.t -> bool;
      (** store-independent batched check: replays the proving walk over
          the supplied nodes, hash-chained from the trusted root, and
          compares every claim — equivalent to verifying each key's
          single proof (qcheck-pinned in [test_proof]). *)
  reopen : Hash.t -> t;
      (** view another version (same index kind, same store) by its root —
          what a checkout of an old commit does *)
  range : lo:Kv.key option -> hi:Kv.key option -> (Kv.key * Kv.value) list;
      (** records with lo <= key <= hi (inclusive; [None] = unbounded),
          sorted by key.  Ordered trees prune subtrees outside the range;
          MBT has no key order and scans (documented O(N)). *)
  scan : lo:Kv.key option -> hi:Kv.key option -> (Kv.key * Kv.value) Seq.t;
      (** streaming ordered read over the half-open interval [lo, hi):
          records with lo <= key < hi ([None] = unbounded), produced in
          key order as a lazy sequence.  The traversal is demand-driven —
          nodes outside the interval are pruned before they are fetched,
          and a consumer that stops early never pays for the rest of the
          tree — and goes through the decoded-node cache like every other
          read.  Half-open so interval endpoints compose without overlap
          (the shard router depends on this).  MBT raises
          {!Unsupported}. *)
}

(** {2 Building an instance} *)

type 'node walk =
  fetch:(Hash.t -> 'node) ->
  Hash.t ->
  Kv.key array ->
  (Kv.key -> Kv.value -> unit) ->
  unit
(** A kind's batched point walk: [walk ~fetch root keys on_hit] descends
    once from a non-null [root] for the sorted, distinct [keys], obtaining
    every node through [fetch] and calling [on_hit k v] for each key found.
    A node shared by several keys must be fetched once, and the fetch order
    must depend only on the nodes and the keys: proving records that order
    and verifying replays it. *)

type order =
  | Ordered of
      (lo:Kv.key option -> hi:Kv.key option -> (Kv.key * Kv.value) Seq.t)
      (** the kind's streaming scan over [[lo, hi)] (the {!field-scan}
          contract) *)
  | Unordered of ((Kv.key -> Kv.value -> unit) -> unit)
      (** no key order: visit every record, in any order *)

val make :
  name:string ->
  store:Siri_store.Store.t ->
  root:Hash.t ->
  decode:(string -> 'node) ->
  get:(Hash.t -> 'node) ->
  walk:'node walk ->
  order:order ->
  batch:(Kv.op list -> t) ->
  bulk_load:((Kv.key * Kv.value) list -> t) ->
  diff:(Hash.t -> Kv.diff_entry list) ->
  reopen:(Hash.t -> t) ->
  t
(** The instance for one version.  [get] is the kind's decoded-node-cache
    read ({!Siri_store.Store.Decoded}) and [decode] its codec; [batch],
    [bulk_load] and [diff] are taken as they are, and [merge] is derived
    from the unprobed [diff] and [batch].  Derived reads:
    - [lookup] and [path_length] walk one key, through [get] (counting
      fetches for the path length);
    - [get_many] walks the sorted distinct keys once;
    - [prove_many] walks with a {!Multiproof.recorder} over raw store
      reads, and [verify_many] replays the walk over a
      {!Multiproof.consumer}, so it needs no store;
    - [prove]/[verify] are a one-claim [prove_many]/[verify_many];
    - with [Ordered scan], [range] is [scan] up to just past the inclusive
      [hi] and [to_list]/[cardinal] drain it; with [Unordered iter], they
      collect and sort, [range] filters, and [scan] raises
      {!Unsupported}.

    Against {!Hash.null} every kind accepts exactly the node-less,
    all-absent proofs.  [lookup], [get_many], [batch], [bulk_load],
    [diff], [prove] and [prove_many] report as [<name>.<op>] probes on the
    store's telemetry sink. *)

val insert : t -> Kv.key -> Kv.value -> t
val remove : t -> Kv.key -> t
val of_entries : t -> (Kv.key * Kv.value) list -> t
(** Bulk-load into (a fresh version of) the given instance via [batch]. *)

(** {2 Tiered reads} *)

val get : t -> Kv.key -> Kv.value option
(** [t.lookup], timed into the [read.lookup.hit] histogram (the store's
    decoded-node cache is on and saw no miss during the walk: every node
    came from cache) or [read.lookup.miss] (the walk decoded a node; with
    the cache off, every walk), with matching counters, so [siri-cli
    stats] can report hit ratio and per-tier latency.  With telemetry off
    ({!Siri_telemetry.Telemetry.null}) it adds one closed-over branch to
    [t.lookup]. *)

(** {2 Ordered streaming reads} *)

val scan : ?lo:Kv.key -> ?hi:Kv.key -> t -> (Kv.key * Kv.value) Seq.t
(** [t.scan] with optional labelled bounds: streams the entries of the
    half-open interval [[lo, hi)] in key order, counting one
    [<kind>.scan] per call.  Raises {!Unsupported} for MBT. *)

val range_count : ?lo:Kv.key -> ?hi:Kv.key -> ?limit:int -> t -> int
(** Number of entries in [[lo, hi)], computed by draining the stream but
    never materializing it.  [limit] bounds the answer: counting stops at
    [limit] entries, so "are there at least k rows?" costs O(k) node
    visits regardless of selectivity.  Raises {!Unsupported} for MBT. *)

(** {2 Cached multiproof serving} *)

type Siri_readpath.Proof_cache.repr += Cached_multiproof of Multiproof.t

val prove_many : t -> Kv.key list -> Multiproof.t
(** [t.prove_many] through the store's proof cache
    ({!Siri_store.Store.proof_cache}): a repeated request for the same
    [(root, sorted key set)] returns the memoized multiproof without
    touching the tree, metered as [proof.cache.hit]/[miss]/[evict].  With
    the cache disabled (the default) this is exactly [t.prove_many]. *)

val verify_many : t -> root:Hash.t -> Multiproof.t -> bool
(** [t.verify_many], for symmetry with {!prove_many}. *)

val page_set : t -> Hash.Set.t
(** Reachable pages [P(I)] of this version. *)

val node_count : t -> int
val total_bytes : t -> int
