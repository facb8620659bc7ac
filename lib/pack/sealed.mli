(** Sealed files: [magic ‖ body ‖ SHA-256(magic ‖ body)] — the one codec
    of the pack's manifest and offset index.  A reader checks the magic
    and the trailer before it parses a single field. *)

module Wire = Siri_codec.Wire

val encode : ?capacity:int -> magic:string -> (Wire.Writer.t -> unit) -> string
(** The sealed bytes of [magic] and the body the function writes. *)

val decode :
  magic:string ->
  what:string ->
  (Wire.Reader.t -> 'a) ->
  string ->
  ('a, [ `Malformed of string ]) result
(** Check the magic and the trailer, then parse the body, which the
    function must consume exactly.  Errors name [what]: "[what] too
    short", "bad [what] magic", "[what] checksum mismatch", "[what]
    truncated"; a [Failure msg] the parser raises is [`Malformed msg]. *)
