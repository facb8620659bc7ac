(** Merkle Bucket Tree (Section 3.4.2) — a Merkle tree over a fixed hash
    table, as in Hyperledger Fabric 0.6.

    Records hash into one of [capacity] buckets (sorted within each bucket);
    a complete [fanout]-ary Merkle tree of hashes sits on top.  [capacity]
    and [fanout] are fixed for the lifetime of the index, so the tree shape
    never changes — only node contents do.  Lookups compute the bucket index
    from the key hash and derive the root-to-leaf path arithmetically.

    The structure is trivially structurally invariant (a record's position
    depends only on its key), but buckets grow linearly with N/B, which is
    what makes its update cost O(log_m B + N/B).

    Reads go through {!generic}: one bucket-grouped point walk, from which
    {!Siri_core.Generic.make} derives lookups and proofs, and the diff,
    from which it derives the merge.  Having no key order, the instance
    lists and ranges by sorting {!iter}'s records and refuses streaming
    scans.  The bulk build encodes and hashes on a pool
    ({!Siri_parallel.Pool.sequential} when none is given), as does
    {!batch} when given one, and install through
    {!Siri_store.Store.put_parallel}. *)

open Siri_crypto
open Siri_core
module Store = Siri_store.Store

type config = { capacity : int;  (** number of buckets, B *) fanout : int }

val config : ?capacity:int -> ?fanout:int -> unit -> config
(** Defaults: [capacity = 1024], [fanout = 2] (Hyperledger 0.6 shape). *)

type t

val empty : Store.t -> config -> t
(** Builds the complete tree of empty buckets (all shared — empty buckets
    are byte-identical). *)

val of_root : Store.t -> config -> Hash.t -> t
val root : t -> Hash.t
val store : t -> Store.t
val conf : t -> config

val bucket_index : config -> Kv.key -> int
(** hash(key) mod B — which bucket a key lives in. *)

(** Lookup split into its two phases so that benchmarks can time them
    separately (Figure 13): *)

type bucket
(** A decoded leaf bucket. *)

val load_bucket : t -> Kv.key -> bucket
(** Traverse the tree and fetch + decode the bucket — the "load" phase. *)

val scan_bucket : bucket -> Kv.key -> Kv.value option
(** Binary search within the bucket — the "scan" phase. *)

val bucket_size : bucket -> int

val insert : t -> Kv.key -> Kv.value -> t
val remove : t -> Kv.key -> t

val batch : ?pool:Siri_parallel.Pool.t -> t -> Kv.op list -> t
(** Groups ops by bucket so each touched path is rewritten once.  With
    [pool], the commit is rebuilt level by level: dirty buckets and their
    affected ancestors are encoded and hashed on the pool (each node
    exactly once, vs. up to [fanout] times for the sequential per-path
    fold) and installed in deterministic index order — the resulting root
    is identical for any domain count. *)

val of_entries : ?pool:Siri_parallel.Pool.t -> Store.t -> config -> (Kv.key * Kv.value) list -> t
(** Bulk build: fill all buckets, then hash bottom-up once.  Key
    digesting, bucket encoding and the internal levels fan out over [pool]
    (default: sequential); the root, put sequence and metering totals do
    not depend on its width.  A key given more than once keeps its last
    value, as in {!batch}. *)

val iter : t -> (Kv.key -> Kv.value -> unit) -> unit
(** Every record, bucket by bucket — in no key order. *)

val diff : t -> t -> Kv.diff_entry list
(** Positional diff: corresponding subtrees are compared by hash and pruned
    when equal.  Both instances must share the same [config]. *)

val generic : ?pool:Siri_parallel.Pool.t -> t -> Generic.t
(** Package as a uniform SIRI instance.  With [pool], [batch] and
    [bulk_load] run through the parallel commit pipeline. *)
