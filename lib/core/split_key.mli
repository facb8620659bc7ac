(** The read side and the diff-shaped helpers shared by the split-key
    search trees (POS-Tree, Prolly Tree, MVMB+-Tree).

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

(** {2 Bulk build} *)

val bulk_build :
  pool:Siri_parallel.Pool.t ->
  Siri_store.Store.t ->
  cut_leaves:((Kv.key * Kv.value) array -> (int * int) array) ->
  cut_refs:((Kv.key * Hash.t) array -> (int * int) array) ->
  encode_leaf:((Kv.key * Kv.value) array -> string) ->
  encode_internal:(int -> (Kv.key * Hash.t) array -> string) ->
  (Kv.key * Kv.value) array ->
  Hash.t
(** Build a tree bottom-up over sorted, distinct, non-empty [entries] and
    return its root.  Each level is cut into [[lo, hi)] segments
    ([cut_leaves] for the records, [cut_refs] for the (last key, child)
    refs of the level below); every segment becomes one node, encoded at
    its height ([encode_internal 1] for the level above the leaves) and
    hashed on [pool], then installed in segment order
    ({!Siri_store.Store.put_parallel}) and metered as one parallel map.
    A level of one ref is the root.
    The cuts depend only on the items, so the root does not depend on the
    pool's width. *)

(** {2 Whole-tree operations}

    Both trees also share everything that works on their generic
    {!Tree_diff} shape; [decode] is the kind's codec, read raw from the
    store (not through the decoded-node cache). *)

val diff :
  decode:(string -> node) -> Siri_store.Store.t -> Hash.t -> Hash.t ->
  Kv.diff_entry list
(** [diff ~decode store left right]: the hash-pruned ordered diff of two
    versions ({!Tree_diff}). *)

val stats : decode:(string -> node) -> Siri_store.Store.t -> Hash.t -> Tree_stats.t
(** Per-level node counts, sizes and fanouts of the version at the root. *)

val prove_range :
  decode:(string -> node) -> Siri_store.Store.t -> Hash.t ->
  lo:Kv.key option -> hi:Kv.key option -> Range_proof.t
(** Authenticated range scan of the version at the root ({!Range_proof}). *)

val verify_range_proof :
  decode:(string -> node) -> root:Hash.t -> Range_proof.t -> bool
(** Store-independent check of a {!prove_range} answer. *)
