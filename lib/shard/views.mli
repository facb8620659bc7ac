(** One immutable read view over a branch head, flat or sharded — the
    unit the server snapshots, the CLI reads and {!Shard_proof} proves
    against.  A flat view is one {!Siri_core.Generic.t}; a sharded view
    is one per shard, in shard order, under a {!Partition.t}.  Old roots
    stay valid forever (the SIRI property), so a view taken at any head
    keeps answering while newer heads are published.  Pure routing and
    delegation: all cache tiering comes from the underlying
    {!Siri_core.Generic} entry points. *)

module Kv = Siri_core.Kv
module Hash = Siri_crypto.Hash
module Generic = Siri_core.Generic

type t

val flat : Generic.t -> t

val sharded : Partition.t -> Generic.t array -> t

val parts : t -> Generic.t array
(** The per-shard views in shard order; one for a flat view. *)

val root : t -> Hash.t
(** The index root of a flat view; the {!Composite.root} over the shard
    roots of a sharded one — what {!prove}'s proofs verify against. *)

val get : t -> Kv.key -> Kv.value option

val get_many : t -> Kv.key list -> (Kv.key * Kv.value option) list
(** One batched lookup per touched shard; results in input key order. *)

val scan :
  ?lo:Kv.key -> ?hi:Kv.key -> t -> (Kv.key * Kv.value) Seq.t
(** Streaming ordered read over [[lo, hi)] in global key order.  Range
    scheme: only the contiguous shard interval holding the bounds is
    touched (lazy concatenation — a single-shard interval streams from
    exactly one shard); hash scheme: all shards, k-way merged lazily.
    A sharded scan counts [shard.scan] per call and [shard.scan.fanout]
    by the number of shards the bounds can touch.  Raises
    {!Generic.Unsupported} when the underlying kind is MBT. *)

val prove : t -> Kv.key list -> string
(** An encoded proof of the keys' membership or absence against
    {!root}: a {!Siri_core.Multiproof} for a flat view, a two-layer
    {!Shard_proof} for a sharded one.  The leading payload byte tells
    them apart (see {!decode_proof}). *)

(** {2 Proof blobs} *)

type proof
(** A decoded proof blob of either shape. *)

val decode_proof :
  string -> (proof, [ `Malformed of string | `Tampered of string ]) result

val proof_spec : proof -> Partition.t option
(** The partition a sharded proof claims ([None] for a flat one).  It
    is bound into the composite digest, so a proof lying about it
    cannot verify. *)

val proof_claims : proof -> (Kv.key * Kv.value option) list

val verify_proof : verifier:Generic.t -> root:Hash.t -> proof -> bool
(** [verifier] is an empty instance of the index kind: it carries the
    per-kind verification logic (and, for MBT, the tree geometry);
    verification never touches its store. *)
