(* SHA-256, FIPS 180-4.  OCaml keeps the 64-byte streaming buffer and the
   padding; whole blocks go to the C compression kernel in
   [sha256_stubs.c], which runs the x86-64 SHA extensions when the CPU has
   them and portable C rounds otherwise.  The chaining state is 32 bytes
   holding H0..H7 big-endian — the digest layout — so [finalize] is a
   copy. *)

(* [blocks st b off n] compresses the [n] 64-byte blocks at [off] in [b]
   into the state [st].  Neither stub allocates or raises; callers check
   bounds. *)
external blocks : bytes -> bytes -> int -> int -> unit = "siri_sha256_blocks"
  [@@noalloc]

external portable_blocks : bytes -> bytes -> int -> int -> unit
  = "siri_sha256_blocks_portable"
  [@@noalloc]

external select_kernel : unit -> bool = "siri_sha256_select"

let kernel = if select_kernel () then "sha-ni" else "portable"

type ctx = {
  h : Bytes.t;                (* 32-byte chaining state *)
  buf : Bytes.t;              (* 64-byte block buffer *)
  pad : Bytes.t;              (* 72-byte finalization pad, reused *)
  mutable buf_len : int;
  mutable total : int64;      (* total bytes absorbed *)
}

let iv =
  "\x6a\x09\xe6\x67\xbb\x67\xae\x85\x3c\x6e\xf3\x72\xa5\x4f\xf5\x3a\
   \x51\x0e\x52\x7f\x9b\x05\x68\x8c\x1f\x83\xd9\xab\x5b\xe0\xcd\x19"

let init () =
  { h = Bytes.of_string iv;
    buf = Bytes.create 64;
    pad = Bytes.create 72;
    buf_len = 0;
    total = 0L }

let reset ctx =
  Bytes.blit_string iv 0 ctx.h 0 32;
  ctx.buf_len <- 0;
  ctx.total <- 0L

(* Absorb [len] bytes at [off] in [b] through [kernel]: top up a partial
   buffer, hand every whole block to the kernel in one call, keep the
   remainder.  Does not count into [total]. *)
let absorb kernel ctx b off len =
  let pos = ref off and remaining = ref len in
  if ctx.buf_len > 0 then begin
    let take = min len (64 - ctx.buf_len) in
    Bytes.blit b off ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := off + take;
    remaining := len - take;
    if ctx.buf_len = 64 then begin
      kernel ctx.h ctx.buf 0 1;
      ctx.buf_len <- 0
    end
  end;
  let whole = !remaining / 64 in
  if whole > 0 then begin
    kernel ctx.h b !pos whole;
    pos := !pos + (whole * 64);
    remaining := !remaining - (whole * 64)
  end;
  if !remaining > 0 then begin
    Bytes.blit b !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let feed_bytes ctx ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Sha256.feed_bytes";
  ctx.total <- Int64.add ctx.total (Int64.of_int len);
  absorb blocks ctx b off len

let feed_string ctx ?(off = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - off in
  feed_bytes ctx ~off ~len (Bytes.unsafe_of_string s)

(* Append 0x80, pad with zeros to 56 mod 64, then the 64-bit bit length. *)
let finish kernel ctx =
  let pad_len =
    let r = (ctx.buf_len + 1 + 8) mod 64 in
    if r = 0 then 1 else 1 + (64 - r)
  in
  (* pad_len + 8 <= 72, so the preallocated pad always fits. *)
  let tail = ctx.pad in
  Bytes.fill tail 0 pad_len '\000';
  Bytes.set tail 0 '\x80';
  Bytes.set_int64_be tail pad_len (Int64.mul ctx.total 8L);
  absorb kernel ctx tail 0 (pad_len + 8);
  assert (ctx.buf_len = 0);
  Bytes.sub_string ctx.h 0 32

let finalize ctx = finish blocks ctx

(* One-shot digests reuse a per-domain scratch context: no allocation of
   the chaining state, block buffer or pad on the hot path, and no sharing
   between domains, so workers in a pool can hash concurrently.

   The context is held in a checkout slot, not used in place: systhreads
   within one domain share DLS state and can be preempted mid-digest (at
   any allocation or poll point between feeds), so two threads hashing
   concurrently on a bare shared context interleave resets and feeds — a
   digest of neither input.  [Atomic.exchange] hands the context to
   exactly one thread; a thread that finds the slot empty pays one fresh
   allocation instead of sharing.  The single-threaded hot path stays
   allocation-free. *)
let scratch : ctx option Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make (Some (init ())))

let with_scratch f =
  let slot = Domain.DLS.get scratch in
  let ctx =
    match Atomic.exchange slot None with
    | Some ctx -> reset ctx; ctx
    | None -> init ()
  in
  let r = f ctx in
  Atomic.set slot (Some ctx);
  r

let digest_string s =
  with_scratch (fun ctx ->
      feed_string ctx s;
      finalize ctx)

let digest_bytes b =
  with_scratch (fun ctx ->
      feed_bytes ctx b;
      finalize ctx)

let digest_substring s ~off ~len =
  with_scratch (fun ctx ->
      feed_string ctx ~off ~len s;
      finalize ctx)

let digest_concat a b =
  with_scratch (fun ctx ->
      feed_string ctx a;
      feed_string ctx b;
      finalize ctx)

let digest_concat_sub a b ~off ~len =
  with_scratch (fun ctx ->
      feed_string ctx a;
      feed_string ctx b ~off ~len;
      finalize ctx)

module For_testing = struct
  let portable_digest s =
    let ctx = init () in
    ctx.total <- Int64.of_int (String.length s);
    absorb portable_blocks ctx (Bytes.unsafe_of_string s) 0 (String.length s);
    finish portable_blocks ctx
end

let hex_alphabet = "0123456789abcdef"

let to_hex s =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set out (2 * i) hex_alphabet.[c lsr 4];
    Bytes.set out ((2 * i) + 1) hex_alphabet.[c land 0xF]
  done;
  Bytes.unsafe_to_string out
