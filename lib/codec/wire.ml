module Hash = Siri_crypto.Hash

module Writer = struct
  type t = Buffer.t

  let create ?(capacity = 256) () = Buffer.create capacity
  let length = Buffer.length

  let u8 t v =
    if v < 0 || v > 0xFF then invalid_arg "Wire.Writer.u8";
    Buffer.add_char t (Char.chr v)

  let u16 t v =
    if v < 0 || v > 0xFFFF then invalid_arg "Wire.Writer.u16";
    Buffer.add_char t (Char.chr (v lsr 8));
    Buffer.add_char t (Char.chr (v land 0xFF))

  let u32 t v =
    if v < 0 || v > 0xFFFFFFFF then invalid_arg "Wire.Writer.u32";
    Buffer.add_char t (Char.chr ((v lsr 24) land 0xFF));
    Buffer.add_char t (Char.chr ((v lsr 16) land 0xFF));
    Buffer.add_char t (Char.chr ((v lsr 8) land 0xFF));
    Buffer.add_char t (Char.chr (v land 0xFF))

  let rec varint t v =
    if v < 0 then invalid_arg "Wire.Writer.varint: negative";
    if v < 0x80 then Buffer.add_char t (Char.chr v)
    else begin
      Buffer.add_char t (Char.chr (0x80 lor (v land 0x7F)));
      varint t (v lsr 7)
    end

  let raw t s = Buffer.add_string t s

  let str t s =
    varint t (String.length s);
    raw t s

  let hash t h = raw t (Hash.to_raw h)
  let contents = Buffer.contents

  let rec varint_size v = if v < 0x80 then 1 else 1 + varint_size (v lsr 7)
  let str_size s = varint_size (String.length s) + String.length s
end

module Exact = struct
  let rec varint b off v =
    if v < 0 then invalid_arg "Wire.Exact.varint: negative";
    if v < 0x80 then begin
      Bytes.set b off (Char.unsafe_chr v);
      off + 1
    end
    else begin
      Bytes.set b off (Char.unsafe_chr (0x80 lor (v land 0x7F)));
      varint b (off + 1) (v lsr 7)
    end

  let raw b off s =
    let n = String.length s in
    Bytes.blit_string s 0 b off n;
    off + n

  let str b off s = raw b (varint b off (String.length s)) s
end

module Reader = struct
  (* A reader is a window [base, limit) over [src]; [of_string] opens the
     whole string, [of_substring] a slice of it without copying — frame
     decoders (WAL scan) read length-prefixed payloads in place instead of
     materializing a [String.sub] per frame. *)
  type t = { src : string; mutable pos : int; base : int; limit : int }

  exception Truncated

  let of_string src = { src; pos = 0; base = 0; limit = String.length src }

  let of_substring src ~off ~len =
    if off < 0 || len < 0 || off + len > String.length src then
      invalid_arg "Wire.Reader.of_substring";
    { src; pos = off; base = off; limit = off + len }

  let pos t = t.pos - t.base
  let remaining t = t.limit - t.pos
  let at_end t = remaining t = 0

  let need t n = if n < 0 || remaining t < n then raise Truncated

  let u8 t =
    need t 1;
    let v = Char.code t.src.[t.pos] in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    let hi = u8 t in
    let lo = u8 t in
    (hi lsl 8) lor lo

  let u32 t =
    let hi = u16 t in
    let lo = u16 t in
    (hi lsl 16) lor lo

  (* Cap the shift: a malicious run of continuation bytes must fail
     cleanly instead of shifting past the word size.  The last usable
     chunk sits at shift 56 and may only carry 6 bits (bits 56..61);
     anything larger would spill into the sign bit of a 63-bit OCaml int
     and produce a negative "length".  A top-level loop: node parsers
     call this twice per record, so it must not allocate a closure. *)
  let rec varint_from t shift acc =
    let b = u8 t in
    let chunk = b land 0x7F in
    if shift = 56 && (chunk lsr 6 <> 0 || b land 0x80 <> 0) then
      raise Truncated;
    let acc = acc lor (chunk lsl shift) in
    if b land 0x80 = 0 then acc else varint_from t (shift + 7) acc

  let varint t = varint_from t 0 0

  let skip t n =
    need t n;
    t.pos <- t.pos + n

  let raw t n =
    need t n;
    let s = String.sub t.src t.pos n in
    t.pos <- t.pos + n;
    s

  let str t =
    let n = varint t in
    raw t n

  let hash t = Hash.of_raw (raw t Hash.size)
end
