(** Binary node serialization: append-only writers and positional readers.

    All index nodes are encoded with these primitives before being hashed and
    stored, so encodings must be canonical: the same logical node always
    yields the same bytes. *)

module Writer : sig
  type t

  val create : ?capacity:int -> unit -> t
  val length : t -> int

  val u8 : t -> int -> unit
  (** One byte, 0..255. *)

  val u16 : t -> int -> unit
  (** Two bytes big-endian, 0..65535. *)

  val u32 : t -> int -> unit
  (** Four bytes big-endian, 0..2^32-1 (must fit; on 64-bit OCaml ints do). *)

  val varint : t -> int -> unit
  (** LEB128 unsigned varint; argument must be non-negative. *)

  val raw : t -> string -> unit
  (** Append bytes verbatim. *)

  val str : t -> string -> unit
  (** Length-prefixed (varint) string. *)

  val hash : t -> Siri_crypto.Hash.t -> unit
  (** Append the raw 32 bytes of a digest. *)

  val contents : t -> string

  val varint_size : int -> int
  (** Bytes {!varint} writes for a non-negative argument. *)

  val str_size : string -> int
  (** Bytes {!str} writes for the string. *)
end

module Exact : sig
  (** Writes into a preallocated [Bytes.t] sized in advance with
      {!Writer.varint_size} and {!Writer.str_size}, so a node is built in
      one exact-size buffer with no growth and no final copy.  Each
      function writes at the given offset and returns the offset just past
      what it wrote; the bytes are those {!Writer} would append. *)

  val varint : Bytes.t -> int -> int -> int
  (** [varint b off v]: LEB128 of the non-negative [v]. *)

  val raw : Bytes.t -> int -> string -> int
  (** The string's bytes verbatim. *)

  val str : Bytes.t -> int -> string -> int
  (** Length-prefixed (varint) string. *)
end

module Reader : sig
  type t

  val of_string : string -> t

  val of_substring : string -> off:int -> len:int -> t
  (** A zero-copy reader over the slice [off, off+len) of the string — no
      [String.sub] is performed; reads past the slice raise {!Truncated}
      exactly as if the slice were a standalone string.  Raises
      [Invalid_argument] if the slice falls outside the string. *)

  val pos : t -> int
  (** Bytes consumed so far, relative to the start of the (sub)string the
      reader was opened on. *)

  val remaining : t -> int
  val at_end : t -> bool

  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int

  val varint : t -> int
  (** Never returns a negative value: a continuation run that would shift
      past the 62 usable bits of an OCaml int raises {!Truncated}. *)

  val raw : t -> int -> string

  val skip : t -> int -> unit
  (** [skip t n] advances past [n] bytes without copying them; raises
      {!Truncated} exactly when [raw t n] would. *)

  val str : t -> string
  val hash : t -> Siri_crypto.Hash.t

  exception Truncated
  (** Raised by any read that runs past the end of input or decodes a
      malformed length (negative or overflowing varint).  This is the
      {e only} exception any reader entry point may raise on arbitrary
      bytes — fuzzed in [test/test_codec.ml]. *)
end
