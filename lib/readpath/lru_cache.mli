(** A polymorphic fixed-budget LRU cache with an intrusive recency list,
    metering capacity in approximate {e cost units}: bytes for the decoded
    node cache, entries for the simulated client cache of
    [Siri_forkbase.Remote] (unit values at cost 1).

    All operations are O(1) except {!clear} and {!resize}.  The cache is
    not domain-safe: like the store's node table, it belongs to the
    coordinating domain (pool workers never read through it). *)

module Make (K : Hashtbl.HashedType) : sig
  type 'a t

  val create : budget:int -> 'a t
  (** [budget] in cost units; must be non-negative.  A zero-budget cache
      stores nothing: every {!find} misses and {!insert} is a no-op. *)

  val budget : 'a t -> int
  val size : 'a t -> int
  (** Entries currently held. *)

  val cost : 'a t -> int
  (** Sum of the [cost] of all held entries (<= [budget] after every
      operation, unless a single entry exceeds the whole budget — such an
      entry is never admitted). *)

  val find : 'a t -> K.t -> 'a option
  (** Lookup; refreshes recency on hit. *)

  val insert : 'a t -> K.t -> cost:int -> 'a -> unit
  (** Insert or replace, then evict least-recently-used entries until the
      total cost fits the budget.  An entry whose own cost exceeds the
      budget is dropped immediately (nothing else is evicted for it). *)

  val remove : 'a t -> K.t -> bool
  (** Targeted invalidation; returns whether the key was held. *)

  val mem : 'a t -> K.t -> bool
  (** Membership without refreshing recency. *)

  val evictions : 'a t -> int
  (** Entries evicted by {!insert} since creation ({!clear}/{!remove} do
      not count — an explicit drop is not an eviction). *)

  val clear : 'a t -> unit

  val resize : 'a t -> budget:int -> unit
  (** Change the budget in place, evicting (oldest first) until the held
      cost fits.  Shrinking to 0 empties the cache. *)

  val iter : 'a t -> (K.t -> 'a -> unit) -> unit
  (** Most-recent first; for tests and diagnostics. *)
end
