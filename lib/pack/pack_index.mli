(** The persisted pack offset index: hash -> (segment, offset, length).

    The index is a pure acceleration structure — every byte of it can be
    rebuilt by scanning the live segments, and the encoding is {e
    canonical} (segments ascending by id, entries ascending by raw hash,
    SHA-256 trailer over everything before it), so a rebuild from
    undamaged segments is byte-identical to the persisted file.  That
    identity is the property test's oracle: a corrupt or missing index is
    never trusted, only discarded and rebuilt.

    Each segment carries its {e covered} length — the file prefix the
    entries describe.  On reopen, a file longer than its covered length
    has a tail appended after the last index sync (scan and adopt it); a
    file shorter than it means the index over-describes reality (rebuild
    everything). *)

module Hash = Siri_crypto.Hash

type entry = { seg : int; off : int; len : int }
(** [len] is the full frame length, so a node read is one positional read
    of [len] bytes at [off]. *)

type t = {
  segments : (int * int) list;  (** (id, covered bytes), ascending by id *)
  entries : (Hash.t * entry) list;  (** ascending by raw hash *)
}

val of_table : segments:(int * int) list -> entry Hash.Table.t -> t
(** Canonicalise: sorts both lists. *)

val encode : t -> string
(** The canonical bytes, sealed by {!Sealed.encode}. *)

val decode : string -> (t, [ `Malformed of string ]) result
(** Verify the trailer and parse.  Any damage — wrong magic, bad
    checksum, truncation, non-canonical order — is [`Malformed]. *)

val save : ?sync:bool -> string -> t -> unit
(** Atomic replace ({!Siri_io.Io.replace}); [sync] defaults to true. *)

val load : string -> t option
(** [None] when the file is missing or fails {!decode} — the caller
    rebuilds from segments. *)
