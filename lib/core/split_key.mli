(** The node view, the node writer, the read side and the diff-shaped
    helpers shared by the split-key search trees (POS-Tree, Prolly Tree,
    MVMB+-Tree).

    Both trees store sorted records in leaves and (split-key, child-hash)
    pairs in internal nodes, where child [i] covers the keys in
    (split_{i-1}, split_i].  They differ in how nodes are cut, not in how
    they are laid out or searched, so the node format — one parser and one
    writer for each of the two layouts — and the two read traversals — the
    batched point walk and the ordered scan — live here once.  Every node
    is obtained through a caller-supplied [fetch], so the same traversal
    serves cached reads, proof recording and proof replay.

    {2 Layout}

    {v tag(u8: 0 leaf, else internal) | [salt(str)] | [level(u8), internal only] | varint n | item * n v}

    A record is [str key | str value]; a ref is [str key | child hash (32)];
    [str] is a varint length then the bytes.  POS-Tree and Prolly nodes
    carry the salt ([~salted:true], [~salt:(Some s)]); MVMB+-Tree nodes do
    not. *)

open Siri_crypto

(** {2 Node views}

    A view is a node's bytes plus an offset table giving each item's
    start, key offset and key length.  Searching a view compares keys in
    place; a key or value string is built only when a caller asks for one
    (a hit, an emitted record, a child to descend into).  Views are
    immutable and shared: {!Siri_store.Store.Decoded} caches them. *)

type view

val parse : salted:bool -> string -> view
(** Parse a node of the salted or unsalted layout.  Accepts exactly the
    inputs the entry-array decoder it replaced accepted (trailing bytes
    after the last item are ignored); on every other input raises
    [Siri_codec.Wire.Reader.Truncated] — a corrupt item count is refused
    before anything is allocated for it. *)

val empty_leaf : view
(** A leaf of no records (not the view of any stored node): what an
    update of the empty tree merges its ops into. *)

val is_leaf : view -> bool

val level : view -> int
(** 0 for a leaf; an internal node's height byte. *)

val count : view -> int
(** Number of records or refs. *)

val bytes : view -> string
(** The node bytes the view was parsed from. *)

val item_start : view -> int -> int
val item_stop : view -> int -> int
(** Item [i] is the byte range [[item_start v i, item_stop v i)] of
    {!bytes}. *)

val compare_key : Kv.key -> view -> int -> int
(** [compare_key s v i] = [String.compare s (key v i)], without building
    the key. *)

val key : view -> int -> Kv.key
val value : view -> int -> Kv.value
(** Record [i]'s value (leaf views only). *)

val child : view -> int -> Hash.t
(** Ref [i]'s child hash (internal views only). *)

val child_off : view -> int -> int
(** Offset in {!bytes} of ref [i]'s raw child hash. *)

val child_for : view -> Kv.key -> int
(** Index of the first split key >= the key; {!count} when the key lies
    beyond the last split key. *)

val find_entry : view -> Kv.key -> Kv.value option
(** Binary search in a leaf. *)

val entries : view -> (Kv.key * Kv.value) array
val refs : view -> (Kv.key * Hash.t) array
(** Materialized items, for write paths that edit a node in place
    (MVMB+-Tree). *)

(** {2 Node writer}

    One writer for both layouts.  It sizes a node exactly, allocates one
    [Bytes] and writes each item once: a fresh record or ref is encoded,
    and an item carried over unchanged from an old node is blitted from
    that node's bytes.  The writer is canonical and the bytes of an item
    do not depend on its node (the salt and the level sit in the header),
    so a blitted item is byte-identical to its re-encoding. *)

type item =
  | Ent of Kv.key * Kv.value  (** a record *)
  | Ref of Kv.key * Hash.t  (** a (split-key, child) ref *)
  | Raw of view * int  (** item [i] of an old node, carried over verbatim *)

val item_size : item -> int
(** Bytes the item takes in a node — and in the rolling hash's input. *)

val item_key : item -> Kv.key
val item_child : item -> Hash.t
(** The child of a ref ([Ref], or [Raw] of an internal view). *)

val ser_item : item -> string
(** The item's bytes on their own, as fed to the rolling hash. *)

val write_rev :
  salt:string option -> level:int -> count:int -> size:int -> item list ->
  string * int array
(** The node at [level] (0 = leaf) holding [count] items of total
    {!item_size} [size], given {e last item first}, with the offset of
    each ref's child hash in the bytes, first ref first ([[||]] for a
    leaf): the [~child_offsets] {!Siri_store.Store.put} takes.  A ref's
    child hash is the last {!Hash.size} bytes of its item. *)

val write_leaf : salt:string option -> (Kv.key * Kv.value) array -> string
val write_internal :
  salt:string option -> int -> (Kv.key * Hash.t) array -> string * int array
(** A leaf, or an internal node at the given height (with its child hash
    offsets, as {!write_rev}), of sorted items. *)

(** {2 Reads} *)

val walk :
  fetch:(Hash.t -> view) ->
  Hash.t ->
  Kv.key array ->
  (Kv.key -> Kv.value -> unit) ->
  unit
(** [walk ~fetch root keys on_hit] descends once for the sorted, distinct
    [keys]: at every internal node the live slice is split at the child
    separators, so a node shared by several keys is fetched once.
    [on_hit k v] fires for each key found. *)

val scan :
  fetch:(Hash.t -> view) ->
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
  salt:string option ->
  cut_leaves:((Kv.key * Kv.value) array -> (int * int) array) ->
  cut_refs:((Kv.key * Hash.t) array -> (int * int) array) ->
  (Kv.key * Kv.value) array ->
  Hash.t
(** Build a tree bottom-up over sorted, distinct, non-empty [entries] and
    return its root.  Each level is cut into [[lo, hi)] segments
    ([cut_leaves] for the records, [cut_refs] for the (last key, child)
    refs of the level below); every segment becomes one node, written by
    {!write_leaf} or {!write_internal} (height 1 for the level above the
    leaves) and hashed on [pool], then installed in segment order
    ({!Siri_store.Store.put_parallel}) and metered as one parallel map.
    A level of one ref is the root.
    The cuts depend only on the items, so the root does not depend on the
    pool's width. *)

(** {2 Whole-tree operations}

    Both trees also share everything that works on their generic
    {!Tree_diff} shape, materialized from views; [decode] is the kind's
    parser, applied to raw store reads (not through the decoded-node
    cache). *)

val diff :
  decode:(string -> view) -> Siri_store.Store.t -> Hash.t -> Hash.t ->
  Kv.diff_entry list
(** [diff ~decode store left right]: the hash-pruned ordered diff of two
    versions ({!Tree_diff}). *)

val stats : decode:(string -> view) -> Siri_store.Store.t -> Hash.t -> Tree_stats.t
(** Per-level node counts, sizes and fanouts of the version at the root. *)

val prove_range :
  decode:(string -> view) -> Siri_store.Store.t -> Hash.t ->
  lo:Kv.key option -> hi:Kv.key option -> Range_proof.t
(** Authenticated range scan of the version at the root ({!Range_proof}). *)

val verify_range_proof :
  decode:(string -> view) -> root:Hash.t -> Range_proof.t -> bool
(** Store-independent check of a {!prove_range} answer. *)
