(** SHA-256 (FIPS 180-4).

    Streaming, padding and the scratch contexts are OCaml; block
    compression is a C kernel ([sha256_stubs.c], built by dune, no package
    needed).  The kernel is picked once at module initialisation from
    CPUID: the x86-64 SHA extensions when the CPU has them (plus SSSE3 and
    SSE4.1), portable C rounds otherwise.  Nothing selects it but the CPU.
    Verified against the NIST test vectors, and the two kernels against
    each other, in the test suite. *)

val kernel : string
(** The compression kernel in use: ["sha-ni"] or ["portable"].  Benchmark
    sidecars record it beside the host's domain count. *)

type ctx
(** Streaming hash context (mutable). *)

val init : unit -> ctx
(** Fresh context. *)

val feed_bytes : ctx -> ?off:int -> ?len:int -> bytes -> unit
(** Absorb [len] bytes of [b] starting at [off] (defaults: whole buffer). *)

val feed_string : ctx -> ?off:int -> ?len:int -> string -> unit
(** Same as {!feed_bytes} for strings. *)

val finalize : ctx -> string
(** Pad, finish and return the 32-byte digest.  The context must be
    {!reset} before any further use. *)

val reset : ctx -> unit
(** Return the context to its initial state, reusing its internal state,
    block and pad buffers — the allocation-free way to start a new
    digest. *)

val digest_string : string -> string
(** One-shot digest of a string: [digest_string s] is the 32-byte SHA-256
    of [s].  One-shot digests run on a per-domain scratch context, so
    they allocate only the result and are safe to call concurrently from
    different domains. *)

val digest_bytes : bytes -> string
(** One-shot digest of a byte buffer. *)

val digest_substring : string -> off:int -> len:int -> string
(** [digest_substring s ~off ~len] is
    [digest_string (String.sub s off len)] without the copy. *)

val digest_concat : string -> string -> string
(** [digest_concat a b] is [digest_string (a ^ b)] without materializing
    the concatenation. *)

val digest_concat_sub : string -> string -> off:int -> len:int -> string
(** [digest_concat_sub a b ~off ~len] is
    [digest_concat a (String.sub b off len)] without the copy — the WAL
    frame checksum hashed in place. *)

val to_hex : string -> string
(** Lowercase hex rendering of a raw digest (or any string). *)

(**/**)

module For_testing : sig
  val portable_digest : string -> string
  (** One-shot digest through the portable C rounds whatever the CPU — the
      reference the dispatched kernel is checked against. *)
end
