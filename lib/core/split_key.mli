(** The read side shared by the split-key search trees (POS-Tree, Prolly
    Tree, MVMB+-Tree).

    Both trees store sorted records in leaves and (split-key, child-hash)
    pairs in internal nodes, where child [i] covers the keys in
    (split_{i-1}, split_i].  They differ in how nodes are cut and encoded,
    not in how they are searched, so the node shape and the two read
    traversals — the batched point walk and the ordered scan — live here
    once.  Every node is obtained through a caller-supplied [fetch], so the
    same traversal serves cached reads, proof recording and proof
    replay. *)

open Siri_crypto

type node =
  | Leaf of (Kv.key * Kv.value) array  (** sorted records *)
  | Internal of int * (Kv.key * Hash.t) array
      (** height >= 1 and sorted (split-key, child) pairs *)

val child_for : (Kv.key * Hash.t) array -> Kv.key -> int
(** Index of the first split key >= the key; the array length when the key
    lies beyond the last split key. *)

val find_entry : (Kv.key * Kv.value) array -> Kv.key -> Kv.value option
(** Binary search in a sorted leaf. *)

val walk :
  fetch:(Hash.t -> node) ->
  Hash.t ->
  Kv.key array ->
  (Kv.key -> Kv.value -> unit) ->
  unit
(** [walk ~fetch root keys on_hit] descends once for the sorted, distinct
    [keys]: at every internal node the live slice is split at the child
    separators, so a node shared by several keys is fetched once.
    [on_hit k v] fires for each key found. *)

val scan :
  fetch:(Hash.t -> node) ->
  Hash.t ->
  lo:Kv.key option ->
  hi:Kv.key option ->
  (Kv.key * Kv.value) Seq.t
(** The records with lo <= key < hi ([None] = unbounded), in key order, as
    a lazy sequence: subtrees outside the interval are pruned before they
    are fetched, children are expanded only on demand, and the first key
    at or past [hi] ends the stream. *)

val tree_diff_node : node -> Tree_diff.node
(** The shape {!Tree_diff}, {!Tree_stats} and {!Range_proof} work on. *)
