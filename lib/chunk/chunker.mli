(** Item-granular content-defined chunking.

    POS-Tree partitions an ordered sequence of items (records at the leaf
    level, [split-key, child-hash] pairs in internal levels) into nodes.  A
    chunker consumes items one at a time and announces after each whether a
    node boundary falls at its end.

    Boundary rule at the leaf level: a Buzhash rolling hash is computed over
    the serialized bytes of each item (the window rolls within one item); if
    at any byte — once the chunk holds at least [min_size] bytes — the low
    [pattern_bits] bits of the hash are all ones, the chunk ends at the end
    of the current item.  A chunk is also force-cut at [max_size] bytes.
    Because carrying a boundary is a property of an item's own bytes, the
    partition depends only on the item sequence (Structurally Invariant,
    Definition 3.1(1)) and re-chunking after an edit realigns with the old
    boundaries at the next boundary-carrying item.

    Internal levels instead test the child's cryptographic hash directly
    against the pattern (see {!hash_boundary}) — the POS-Tree optimisation
    that avoids re-hashing inside the sliding window. *)

type config = {
  window : int;  (** rolling-hash window in bytes (paper/Noms default: 67) *)
  pattern_bits : int;
      (** boundary when the low [pattern_bits] bits are all ones; expected
          chunk size ≈ [2^pattern_bits] bytes *)
  min_size : int;  (** no boundary before this many bytes *)
  max_size : int;  (** force a boundary at this many bytes *)
}

val config :
  ?window:int -> ?min_size:int -> ?max_size:int -> pattern_bits:int -> unit ->
  config
(** Defaults: [window = 67], [min_size = 0], [max_size = 64 * 2^pattern_bits]
    (rare enough that force-cuts are exceptional). *)

val config_for_leaf_size : int -> config
(** A config whose expected chunk size is the given number of bytes. *)

type t

val create : config -> t
val conf : t -> config

val reset : t -> unit
(** Forget all rolling state (start of a fresh level / segment). *)

val feed : t -> string -> bool
(** [feed t item] absorbs one item's bytes; [true] means a node boundary
    falls after this item (state has been reset). *)

val feed_sub : t -> string -> off:int -> len:int -> bool
(** [feed_sub t s ~off ~len] is [feed t (String.sub s off len)] without
    the copy: a node rebuilt by splicing feeds an item straight out of
    the old node's bytes. *)

val skip : t -> int -> bool
(** [skip t len] absorbs an item of [len] bytes that is known not to carry
    the boundary pattern, without hashing it: it only counts the bytes and
    applies the [max_size] cut.  For such an item it leaves the same state
    and returns the same verdict as {!feed}.

    Precondition: [min_size = 0] in [t]'s config.  Only then is carrying
    the pattern a property of the item's own bytes, so an item that did not
    end its chunk in a tree built under this config never fires anywhere
    (every {!config_for_leaf_size} config qualifies).  With [min_size > 0]
    callers must {!feed}.  Knowing that an item does not fire comes from
    the tree it was read from, so a tree must be updated under the config
    it was built with ([Pos_tree.t] carries that config). *)

val size : t -> int
(** Bytes absorbed since the last boundary. *)

val hash_boundary : config -> Siri_crypto.Hash.t -> bool
(** Internal-level rule: boundary iff the low [pattern_bits] bits of the
    first 8 bytes of the digest are all ones. *)

val hash_boundary_sub : config -> string -> off:int -> bool
(** [hash_boundary_sub c s ~off] is {!hash_boundary} of the raw digest
    stored at [off] in [s] (a child hash inside a node's bytes), read in
    place. *)

val split : config -> string list -> string list list
(** Partition a whole item sequence into chunks from a fresh state.  Every
    chunk is non-empty; concatenating the chunks yields the input. *)
