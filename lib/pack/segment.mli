(** Pack segment files: append-only logs of verified node records.

    A segment is [magic | record*] where each record is

    {v len(u32 BE) | digest(32) | hash(32) | varint n | varint off * n | bytes v}

    [len] counts everything after the digest.  A child is named by the
    offset [off] of its 32-byte hash inside the node bytes, so a child
    hash is stored once, in the node, and never copied into the head.
    Two digests cover a record, and each byte is hashed exactly once:

    - {b the bytes are bound by the hash} — [hash = SHA-256(bytes)] is the
      node's content address, the same name the store keys it by; it
      binds every child hash, since each is part of the bytes;
    - {b the head is bound by the digest} —
      [digest = SHA-256(len ‖ hash ‖ varint n ‖ offsets)], which binds
      where each child hash sits.

    A writer already knows the node hash, so an append hashes only the
    head.  A reader ({!step}) checks the length, then the head's shape
    and that every [off + 32] lies within the node bytes, then the head
    digest, then the content hash, so a flipped bit anywhere in a record
    is caught before any field is trusted.  Like the WAL journal, a segment has
    prefix semantics: a crashed append leaves a torn tail that scanners
    clamp, while a mismatch on a complete record is refused as tampering —
    a wrong read is impossible. *)

module Hash = Siri_crypto.Hash

val magic : string
(** First bytes of every segment file ("SIRIPACKSEG3"). *)

val check_magic : string -> (unit, string) result
(** Classify the first bytes of a segment file (all of them when the
    file is shorter than {!magic}).  A file shorter than the magic is
    [Ok] only when its bytes are a prefix of it — a torn creation,
    clamped to empty by {!scan}; short garbage is an error like a wrong
    magic.  A retired format — "SIRIPACKSEG1", or "SIRIPACKSEG2", whose
    heads copied each child hash — is an error naming that format; any
    other magic is an error. *)

val header_len : int
(** Bytes before the head: 4 length bytes + the 32-byte head digest. *)

val filename : int -> string
(** [filename id] is the basename of segment [id] ("seg-<id>.pack"). *)

val id_of_filename : string -> int option
(** Inverse of {!filename}; [None] for anything else. *)

val record_head : Hash.t -> bytes_len:int -> int array -> string
(** [record_head h ~bytes_len child_offsets] is everything of a record
    before its node bytes — [len | digest | hash | varint n | offsets] —
    built in one exact-size buffer.  An appender writes it and then the
    node bytes, so a node is never copied into a record.  [h] must be
    [SHA-256] of the [bytes_len] node bytes that follow — the caller's
    already-computed node hash; only the head is hashed here.  Child [i]'s
    hash is the 32 node bytes at [child_offsets.(i)]; an offset with
    [off < 0] or [off + 32 > bytes_len] raises [Invalid_argument]. *)

val encode_record : Hash.t -> string -> int array -> string
(** [encode_record h bytes child_offsets] =
    [record_head h ~bytes_len child_offsets ^ bytes], the whole record as
    one string (tests and tools). *)

type record = {
  hash_off : int;  (** the node hash is the {!Hash.size} bytes here *)
  n_children : int;  (** child count *)
  children_off : int;  (** the first child offset varint; the others follow it *)
  bytes_off : int;
  bytes_len : int;  (** the node bytes are this slice of the blob *)
  next : int;  (** offset of the following record *)
}
(** A verified record, as offsets into the blob {!step} read it from:
    nothing is copied out until a caller asks ({!hash}, {!children}, or
    a [String.sub] of the node bytes). *)

type step =
  | Record of record
      (** A record whose head digest and content hash both verified. *)
  | End  (** The offset is exactly the end of the blob. *)
  | Torn of int
      (** The remaining bytes are shorter than the declared record — a
          torn append; carries how many trailing bytes to clamp. *)
  | Corrupt
      (** A complete record failing either digest, or with a malformed
          head — a child offset outside the node bytes included — bit
          rot or tampering, never a torn write. *)

val step : ?limit:int -> string -> pos:int -> step
(** Verify the record of [blob] starting at [pos] (within [0, limit]).
    The blob is its first [limit] bytes (default: all of them), so a
    reader can verify a record in a reused buffer longer than the
    record.  Both digests are computed over slices in place and compared
    with the stored ones in place: the record's hash, children and bytes
    are never copied, so verifying a record allocates a small constant
    (the two computed digests, the {!record}, a few words of parsing)
    whatever its size.  This is the one record parser: {!scan} and every
    cold read go through it. *)

val hash : string -> record -> Hash.t
(** The node hash of a record {!step} verified in [blob], copied out. *)

val children : string -> record -> Hash.t list
(** The child hashes of a record {!step} verified in [blob], in order,
    each copied out of the verified node bytes at its offset. *)

type scanned = {
  records : (Hash.t * int * int) list;
      (** (node hash, record offset, record length) in file order *)
  length : int;  (** valid prefix length — clamp the file to this *)
  clamped : int;  (** torn trailing bytes past [length] *)
}

val scan : ?from:int -> string -> (scanned, [ `Tampered of int ]) result
(** [scan ~from tail] classifies a segment's bytes from file offset [from]
    (default 0) to its end, given as [tail], with {!step}: the one segment
    scan, for a rebuild, a segment the offset index does not name, and the
    tail past the index's coverage alike.  From 0 it first checks the
    magic ({!check_magic}) and steps from just after it; a file torn
    inside the magic is clamped to empty, and a wrong magic is
    [`Tampered 0].  From [from > 0] — a record boundary past the magic,
    such as the index's covered length — only the tail is stepped, so a
    reopen after a crash reads the unindexed bytes, not the whole file.
    Record offsets, [length] and the [`Tampered] offset are file offsets.
    A torn tail is clamped into [clamped]; a verification failure on a
    complete record is [`Tampered offset]. *)
