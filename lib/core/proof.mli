(** Merkle proofs.

    A proof for key [k] is the serialized bytes of every node on the lookup
    path, root first.  A verifier who trusts only the root digest re-hashes
    each node, checks that it is the child referenced by its parent, replays
    the traversal on the decoded nodes, and compares the claimed value —
    the "proof of data" of Section 2.3.  A single proof is the one-key
    case of a {!Multiproof}: {!Generic.make} builds [prove] and [verify]
    from the index's batched walk; this module holds the shape and
    helpers. *)

type t = {
  key : Kv.key;
  value : Kv.value option;  (** claimed result: [None] proves absence *)
  nodes : string list;  (** serialized nodes, root first *)
}

val root_hash : t -> Siri_crypto.Hash.t option
(** Digest of the first node, or [None] for an empty proof (an empty index
    proves absence with no nodes). *)

val size_bytes : t -> int
(** Total payload size — the bandwidth cost of shipping the proof. *)

val tamper : t -> t
(** Flip a byte in the deepest node — used by tests to check that verifiers
    reject modified proofs. *)
