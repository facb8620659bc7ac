(** Multi-Version Merkle B+-Tree — the non-SIRI baseline of Section 5.2.

    A B+-tree whose child pointers are the cryptographic hashes of the child
    nodes, with node-level copy-on-write: every update copies the root-to-
    leaf path, so versions share all untouched nodes and the root digest
    authenticates the content (tamper evidence like the SIRI structures).

    What it deliberately lacks is structural invariance: split points depend
    on insertion order (Figure 2), so equal record sets can yield different
    trees and fewer pages deduplicate across independently-built instances.
    Deletions do not rebalance (a node may underflow and an empty node is
    simply dropped), which keeps the baseline faithful to a plain
    copy-on-write B+-tree.

    Its nodes have the POS-Tree's layout without the salt, so it shares
    the POS-Tree's node view and writer, split-key walk, scan, bulk build
    and diff ({!Siri_core.Split_key}); {!generic} derives every read and
    the merge from them.  What stays here is the copy-on-write insert and
    remove, which edit entry and ref arrays copied out of a view. *)

open Siri_crypto
open Siri_core
module Store = Siri_store.Store

type config = { leaf_capacity : int; internal_capacity : int }

val config : ?leaf_capacity:int -> ?internal_capacity:int -> unit -> config
(** Defaults sized so nodes are ≈ 1 KB with the paper's record sizes:
    [leaf_capacity = 4] entries of ≈ 271 B, [internal_capacity = 25]. *)

type t

val empty : Store.t -> config -> t
val of_root : Store.t -> config -> Hash.t -> t
val root : t -> Hash.t
val store : t -> Store.t
val conf : t -> config
val height : t -> int

val insert : t -> Kv.key -> Kv.value -> t
val remove : t -> Kv.key -> t
val batch : t -> Kv.op list -> t
val of_entries : Store.t -> config -> (Kv.key * Kv.value) list -> t

val of_sorted : ?pool:Siri_parallel.Pool.t -> Store.t -> config -> (Kv.key * Kv.value) list -> t
(** Bulk-load by canonical bottom-up packing
    ({!Siri_core.Split_key.bulk_build}): entries are split into balanced
    nodes of at most [leaf_capacity] (resp. [internal_capacity]) whose
    sizes differ by at most one; encoding and hashing fan out over [pool]
    (default: sequential).  The root is byte-identical for any
    domain count, but — the B+-tree not being structurally invariant —
    it generally differs from the insertion-order-dependent root that
    {!of_entries} produces for the same records.  Duplicate keys: last
    wins. *)

val stats : t -> Tree_stats.t
val prove_range : t -> lo:Kv.key option -> hi:Kv.key option -> Range_proof.t
val verify_range_proof : root:Hash.t -> Range_proof.t -> bool
val generic : ?pool:Siri_parallel.Pool.t -> t -> Generic.t
(** Package as a uniform instance.  With [pool], the instance's
    [bulk_load] runs through the parallel {!of_sorted} pipeline. *)
