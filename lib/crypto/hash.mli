(** Cryptographic hash values (32-byte SHA-256 digests).

    A [Hash.t] identifies an immutable node in the content-addressed store:
    two nodes share storage iff their hashes are equal.  The representation is
    the raw 32-byte digest string. *)

type t
(** A 32-byte digest. *)

val size : int
(** Digest size in bytes (32). *)

val of_string : string -> t
(** Hash of arbitrary data: [of_string s] = SHA-256(s). *)

val of_substring : string -> off:int -> len:int -> t
(** [of_substring s ~off ~len] = [of_string (String.sub s off len)]
    without copying the slice first. *)

val of_concat : string -> string -> t
(** [of_concat a b] = [of_string (a ^ b)] without materializing the
    concatenation. *)

val of_concat_sub : string -> string -> off:int -> len:int -> t
(** [of_concat_sub a b ~off ~len] = [of_concat a (String.sub b off len)]
    without copying the slice. *)

val of_string_quiet : string -> t
(** {!of_string} without notifying the digest observer.  Used by the
    parallel commit pipeline: worker domains hash quietly and the
    coordinator replays the notifications via {!note_digest}, keeping
    metering single-domain and deterministic. *)

val set_digest_observer : (int -> unit) option -> unit
(** Install a callback invoked with the input length in bytes on every
    digest computation ({!of_string} and its variants).  At most one observer
    is active at a time; [None] detaches.  The slot is an [Atomic], so
    installing from one domain while others hash is well-defined.  This
    is the metering point the telemetry layer uses to count hash
    invocations and hashed bytes — adopting a pre-computed digest
    ({!of_raw}) is not counted. *)

val note_digest : int -> unit
(** Notify the observer (if any) of a digest over [len] bytes — the replay
    half of {!of_string_quiet}. *)

val of_raw : string -> t
(** Adopt a pre-computed 32-byte digest.  Raises [Invalid_argument] if the
    length is not {!size}. *)

val to_raw : t -> string
(** The raw 32-byte digest. *)

val to_hex : t -> string
(** 64-char lowercase hex rendering. *)

val of_hex : string -> t
(** Inverse of {!to_hex}.  Raises [Invalid_argument] on malformed input. *)

val short : t -> string
(** First 8 hex chars — for logs and error messages. *)

val equal : t -> t -> bool

val equal_sub : t -> string -> off:int -> bool
(** [equal_sub h s ~off] is [equal h (of_raw (String.sub s off size))]
    without copying the slice.  Raises [Invalid_argument] if the slice
    is out of bounds. *)

val compare : t -> t -> int

val hash : t -> int
(** A cheap hash for [Hashtbl]: folds the first bytes of the digest. *)

val byte : t -> int -> int
(** [byte h i] is the [i]-th byte of the digest as an integer. *)

val null : t
(** The all-zero digest, used as a sentinel for "no child". *)

val is_null : t -> bool

val pp : Format.formatter -> t -> unit
(** Prints {!short}. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Table : Hashtbl.S with type key = t
