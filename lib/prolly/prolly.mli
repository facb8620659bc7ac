(** Prolly Tree — the Noms variant compared against POS-Tree in
    Section 5.6.2.

    Structurally it is the same pattern-partitioned search tree, but its
    internal layers decide boundaries by re-running the sliding-window
    rolling hash over the serialized (split-key, child-hash) entries instead
    of reusing the already-computed child hashes.  The extra hashing work on
    every write is precisely the inefficiency Figure 22 measures; reads are
    unaffected.

    This module instantiates {!Siri_pos.Pos_tree} with the Noms boundary
    rule and Noms' defaults (4 KB nodes, 67-byte window); reads, proofs
    and ranges are the POS-Tree's, through {!generic}. *)

open Siri_core
module Store = Siri_store.Store
module Pos_tree = Siri_pos.Pos_tree

type t = Pos_tree.t

val default_config : Pos_tree.config
(** 4 KB target nodes, 67-byte rolling window on every layer. *)

val config : ?node_target:int -> unit -> Pos_tree.config

val empty : Store.t -> t
val of_entries : Store.t -> (Kv.key * Kv.value) list -> t

val of_sorted : ?pool:Siri_parallel.Pool.t -> Store.t -> (Kv.key * Kv.value) list -> t
(** Parallel bulk build (see {!Siri_pos.Pos_tree.of_sorted}); the root is
    byte-identical to {!of_entries} for any domain count. *)

val generic : ?pool:Siri_parallel.Pool.t -> t -> Generic.t
(** Named ["prolly"] in benchmark output. *)
