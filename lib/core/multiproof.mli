(** Batched Merkle multiproofs.

    A multiproof answers a whole key set against one trusted root: the
    claims list pairs every (distinct, sorted) key with its claimed value
    ([None] proves absence), and [nodes] carries the serialized bytes of
    every node the batched traversal touches — each distinct node {e once},
    in first-visit order, root first.  Sibling keys share their prefix
    path, so a multiproof over [k] keys is far smaller than [k] single
    {!Proof.t}s (the witness-compression experiment in BENCH_proof.json).

    Verification ([verify_many], built by {!Generic.make} from the
    index's batched walk and node decoder) replays the same batched
    traversal, consuming [nodes] in order and re-hashing each one against
    the hash the traversal asked for, then compares what the replay found
    with every claim.  Absence
    claims are covered by the same discipline — the node where the lookup
    path diverges (or the bucket that omits the key) is part of the node
    set, so [None] answers are as tamper-evident as hits: a multiproof's
    "not present" is {e provable}.

    This module holds the shared shape, the traversal adapters
    ({!recorder} for proving, {!consumer} for verifying), tamper helpers
    for the adversarial tests, and the compact wire codec. *)

open Siri_crypto

type t = {
  claims : (Kv.key * Kv.value option) list;
      (** strictly sorted by key, no duplicates *)
  nodes : string list;
      (** distinct serialized nodes in first-visit traversal order, root
          first; empty iff the proof is over an empty index or key set *)
}

val keys : t -> Kv.key list

val find : t -> Kv.key -> Kv.value option option
(** The claim for a key: [None] if the key is not in the proof, [Some c]
    with the claimed value otherwise. *)

val root_hash : t -> Hash.t option
(** Digest of the first node, or [None] for an empty proof (an empty index
    proves absence with no nodes — same convention as {!Proof.root_hash}). *)

val size_bytes : t -> int
(** Sum of the node payload sizes — comparable with {!Proof.size_bytes}
    totals, independent of the wire encoding. *)

val well_formed : t -> bool
(** Claims strictly sorted by key with no duplicates.  Every verifier
    checks this first, so a claims list is canonical exactly when it can
    ever be accepted. *)

(** {2 Traversal adapters}

    [prove_many] and [verify_many] are the same batched walk as
    [get_many], differing only in how nodes are fetched. *)

val recorder :
  get:(Hash.t -> string) -> (Hash.t -> string) * (unit -> string list)
(** [recorder ~get] is [(fetch, nodes)] for the proving side: [fetch]
    reads through [get], memoizing by hash so each distinct node is
    fetched and recorded once; [nodes ()] returns the recorded bytes in
    first-fetch order. *)

exception Rejected
(** Raised by a {!consumer} fetch (or by an index verifier's decode
    wrapper) when the supplied node list cannot honestly answer the
    traversal — wrong hash, exhausted list, undecodable bytes. *)

val consumer : string list -> (Hash.t -> string) * (unit -> bool)
(** [consumer nodes] is [(fetch, finished)] for the verifying side:
    [fetch h] pops the next unconsumed node, checks that its bytes hash
    to [h] (raising {!Rejected} otherwise, or when the list is
    exhausted), and memoizes so repeated requests for an already-proven
    hash do not consume further nodes — mirroring the recorder's dedup.
    [finished ()] is true iff every supplied node was consumed, so
    padded, reordered or dropped node lists are all refused. *)

(** {2 Tamper helpers (for the adversarial suites)} *)

val flip_node : t -> index:int -> pos:int -> t
(** Flip one bit of byte [pos mod length] of node [index mod count]. *)

val drop_node : t -> index:int -> t
(** Remove node [index mod count] from the node list. *)

val swap_nodes : t -> i:int -> j:int -> t
(** Exchange two node positions (indices taken mod count). *)

val set_claim : t -> Kv.key -> Kv.value option -> t
(** Replace the claimed value for a key already present in the claims. *)

val tamper : t -> t
(** The {!Proof.tamper} convention for multiproofs: flip a bit of the
    deepest node, or — when there are no nodes — corrupt the claims.
    Any verifier must refuse the result. *)

(** {2 Wire codec}

    The encoding is a checksummed {!Siri_codec.Frame} whose payload
    front-codes the sorted keys (shared-prefix length + suffix), writes
    each claimed value once (later equal values become varint
    back-references), and carries the deduplicated nodes length-prefixed.
    Decoding classifies damage exactly like the WAL scanner: a flipped
    byte fails the frame checksum ([`Tampered]); truncation, trailing
    bytes or an unparseable payload are [`Malformed]. *)

val encode : t -> string

val decode : string -> (t, [ `Malformed of string | `Tampered of string ]) result
(** Inverse of {!encode} on well-formed proofs (bijective round-trip,
    qcheck-pinned).  Never raises on arbitrary bytes. *)

val encoded_size : t -> int
(** [String.length (encode t)] — the actual bandwidth cost. *)
