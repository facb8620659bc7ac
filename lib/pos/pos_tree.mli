(** Pattern-Oriented-Split Tree (Section 3.4.3) — the probabilistically
    balanced search tree of Forkbase.

    The data layer is the key-ordered record sequence, partitioned into leaf
    nodes by a rolling hash over the serialized bytes: a boundary is placed
    after the record in which the hash matches the configured pattern.
    Internal layers hold (split-key, child-hash) pairs; their boundaries are
    decided from the child's cryptographic hash directly (no sliding window
    recomputation — the POS-Tree optimisation over Noms' Prolly Tree, which
    this module also implements via {!internal_rule} [By_rolling]).

    Whether a record carries a boundary is a property of its own bytes (the
    window rolls within one serialized record), so the partition — hence
    the whole tree — is a pure function of the record set: the index is
    Structurally Invariant.  Updates re-chunk only from the edited records
    until the next boundary-carrying record realigns them with the old
    partition, reusing every untouched node (Recursively Identical),
    implemented as a streaming rebuilder that skips clean subtrees in
    O(1).

    The ablation switches of Section 5.5 are exposed as configurations:
    {!config_non_structurally_invariant} (history-dependent local splits)
    and {!config_non_recursively_identical} (fresh salt per version, so no
    node is ever byte-identical across versions).

    This module owns the boundary rules and the streaming rebuilder.
    Everything else is shared: the node layout (a salted
    {!Siri_core.Split_key.view} and the exact-size writer), the point walk,
    the ordered scan, the bulk build and the diff-shaped helpers live in
    {!Siri_core.Split_key} (with the MVMB+-Tree), the cached node read is
    {!Siri_store.Store.Decoded}, and {!generic}'s
    {!Siri_core.Generic.make} derives lookups, proofs, ranges and merge. *)

open Siri_crypto
open Siri_core
module Store = Siri_store.Store
module Chunker = Siri_chunk.Chunker

type internal_rule =
  | By_child_hash of { bits : int; min_items : int; max_items : int }
      (** boundary when the child hash matches a [bits]-wide pattern;
          expected fanout ≈ 2^bits, clamped to [min_items, max_items] *)
  | By_rolling of Chunker.config
      (** Noms/Prolly rule: rolling hash over the serialized entries *)

type config = {
  leaf : Chunker.config;
  internal : internal_rule;
  non_recursively_identical : bool;
      (** when set, every write stamps all nodes with a fresh salt — no
          sharing across versions (Section 5.5.2) *)
  local_split : bool;
      (** when set, an update is contained within the touched leaf (split on
          overflow, never re-merged with successors), so boundaries depend on
          update history — this is what disables structural invariance
          (Section 5.5.1) *)
}

val config :
  ?leaf_target:int ->
  ?internal_bits:int ->
  ?internal:internal_rule ->
  ?non_recursively_identical:bool ->
  unit ->
  config
(** Defaults: leaf nodes ≈ [leaf_target] bytes (default 1024, the paper's
    node size), internal fanout ≈ 2^[internal_bits] (default 5). *)

val config_prolly : ?leaf_target:int -> ?internal_target:int -> unit -> config
(** Noms-like configuration: both layers use the sliding-window rolling
    hash (window 67 bytes, as Noms defaults). *)

val config_non_structurally_invariant : ?leaf_target:int -> unit -> config
(** Section 5.5.1 ablation: the pattern is made so rare that forced
    max-size splits dominate, and updates are handled locally (the touched
    leaf splits on overflow but never re-merges with its successors, via
    [local_split]), so node boundaries depend on the update history — the
    same records reached through different op orders yield different
    trees. *)

val config_non_recursively_identical : ?leaf_target:int -> unit -> config

type t

val empty : Store.t -> config -> t
val of_root : Store.t -> config -> Hash.t -> t
val root : t -> Hash.t
val store : t -> Store.t
val conf : t -> config
val height : t -> int
(** Number of levels (0 for an empty tree, 1 for a single leaf). *)

val insert : t -> Kv.key -> Kv.value -> t
val remove : t -> Kv.key -> t

val batch : t -> Kv.op list -> t
(** One streaming pass: all ops are applied bottom-up, every clean subtree
    is reused without being read — this is the batching advantage measured
    in Section 5.3.1.  Inside a rebuilt node, an untouched item whose
    boundary the old tree already shows is only counted
    ({!Siri_chunk.Chunker.skip}), not hashed, unless the rolling config
    has [min_size > 0]; so [t] must have been built under [conf t].
    A rebuilt node is written in one exact-size buffer; every untouched
    record or reused ref in it is spliced — blitted from the old node's
    bytes, never decoded and re-encoded.
    Reports [chunk.fed], [chunk.skipped] and [node.spliced_bytes] to the
    store's sink. *)

val of_entries : Store.t -> config -> (Kv.key * Kv.value) list -> t
(** Bottom-up bulk build. *)

val of_sorted : ?pool:Siri_parallel.Pool.t -> Store.t -> config -> (Kv.key * Kv.value) list -> t
(** Bulk build in two passes per level ({!Siri_core.Split_key.bulk_build}):
    a sequential rolling-hash scan replays the streaming boundary rules to
    find every chunk cut, then the chunks are encoded and SHA-256'd in
    parallel on [pool] (default: sequential).  Boundaries depend only on the item sequence, so the root
    is byte-identical to {!of_entries} and to itself at any domain count.
    Duplicate keys: last wins. *)

val prove_range :
  t -> lo:Kv.key option -> hi:Kv.key option -> Range_proof.t
(** Authenticated range scan (see {!Siri_core.Range_proof}). *)

val verify_range_proof : root:Hash.t -> Range_proof.t -> bool

val generic : ?pool:Siri_parallel.Pool.t -> t -> Generic.t
(** With [pool], the instance's [bulk_load] runs through the parallel
    {!of_sorted} pipeline. *)

val generic_named : ?pool:Siri_parallel.Pool.t -> string -> t -> Generic.t
(** Like {!generic} with a custom display name — used by the Prolly Tree
    instantiation. *)

val stats : t -> Tree_stats.t
(** Per-level node counts/sizes and fanouts (deduplicated by node). *)

val leaf_sizes : t -> int list
(** Byte sizes of all leaf nodes — used to validate the chunk-size
    distribution against the configured pattern (Table 3). *)
