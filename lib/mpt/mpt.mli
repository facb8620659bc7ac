(** Merkle Patricia Trie (Section 3.4.1) — a radix tree over hex nibbles with
    path compaction and cryptographic authentication, as used by Ethereum.

    Node kinds: {e branch} (16 children + optional value), {e extension}
    (compacted shared path + one child), {e leaf} (compacted remaining path +
    value); the null node is represented by {!Siri_crypto.Hash.null}.  The
    shape depends only on the stored key set (structurally invariant), and
    node-level copy-on-write shares all untouched nodes between versions.

    This module owns the codec, the write paths, the diff and the two read
    traversals — a batched nibble walk and an ordered scan; {!generic}
    derives every read, proof, range and the merge from them
    ({!Siri_core.Generic.make}).  The cached node read is
    {!Siri_store.Store.Decoded}. *)

open Siri_crypto
open Siri_core
module Store = Siri_store.Store

type t
(** An immutable trie version: a store plus a root digest. *)

val empty : Store.t -> t
val of_root : Store.t -> Hash.t -> t
val root : t -> Hash.t
val store : t -> Store.t
val is_empty : t -> bool

val insert : t -> Kv.key -> Kv.value -> t
val remove : t -> Kv.key -> t
(** Removal collapses single-child branches back into extensions/leaves, so
    the shape stays canonical for the remaining key set. *)

val batch : t -> Kv.op list -> t
val of_entries : Store.t -> (Kv.key * Kv.value) list -> t

val of_sorted : ?pool:Siri_parallel.Pool.t -> Store.t -> (Kv.key * Kv.value) list -> t
(** Bulk-load by canonical bottom-up construction.  The trie is
    structurally invariant, so the root is byte-identical to
    {!of_entries} — but node encoding and hashing fan out over [pool]
    (default: sequential), split at the first branch point into up to 16
    independent subtries.  Root hashes and store/telemetry accounting are
    identical for any domain count.  Duplicate keys: last wins. *)

val diff : t -> t -> Kv.diff_entry list
(** Hash-pruned structural diff: identical subtrees are skipped without
    being decoded. *)

val generic : ?pool:Siri_parallel.Pool.t -> t -> Generic.t
(** Package as a uniform SIRI instance.  With [pool], the instance's
    [bulk_load] runs through the parallel {!of_sorted} pipeline. *)
