(* Standard Bloom filter with Kirsch–Mitzenmacher double hashing: two
   independent 64-bit FNV-1a passes give h1 and h2, and probe [i] tests
   bit [(h1 + i*h2) mod nbits].  FNV is used instead of the crypto hash
   on purpose — filter membership must not count against [hash.count]
   telemetry, and a 32-byte SHA-256 per probe would dominate the very
   misses the filter exists to make cheap. *)

type t = {
  bits : Bytes.t;
  nbits : int;
  k : int;
}

(* FNV-1a, 64-bit constants folded into OCaml's 63-bit native int (the
   canonical offset basis has its top bit dropped to stay a literal).
   The top-bit loss is irrelevant: we only need well-mixed residues mod
   [nbits].  Two variants differ in their offset basis so h1 and h2 are
   independent enough for double hashing. *)
let fnv_prime = 0x100000001b3

let fnv ~basis s =
  let h = ref basis in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * fnv_prime
  done;
  !h land max_int

let h1 s = fnv ~basis:0x4bf29ce484222325 s
let h2 s = fnv ~basis:0x6c62272e07bb0142 s

let create ?(bits_per_key = 10) ~expected () =
  let bits_per_key = max 1 bits_per_key in
  let expected = max 1 expected in
  let nbits = max 64 (expected * bits_per_key) in
  (* k = bpk * ln 2, rounded, at least one probe. *)
  let k = max 1 (int_of_float (Float.round (float_of_int bits_per_key *. 0.6931471805599453))) in
  { bits = Bytes.make ((nbits + 7) / 8) '\000'; nbits; k }

let set_bit b i =
  let byte = i lsr 3 and mask = 1 lsl (i land 7) in
  Bytes.unsafe_set b byte
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b byte) lor mask))

let get_bit b i =
  Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let add t key =
  let a = h1 key and b = h2 key in
  (* Force h2 odd so the probe sequence cycles through distinct residues
     even when [nbits] is a power of two. *)
  let b = b lor 1 in
  for i = 0 to t.k - 1 do
    set_bit t.bits ((a + (i * b)) land max_int mod t.nbits)
  done

let mem t key =
  let a = h1 key and b = h2 key in
  let b = b lor 1 in
  let rec go i =
    i >= t.k
    || (get_bit t.bits ((a + (i * b)) land max_int mod t.nbits) && go (i + 1))
  in
  go 0

let add_all t keys = List.iter (add t) keys

let of_keys ?bits_per_key keys =
  let t = create ?bits_per_key ~expected:(List.length keys) () in
  add_all t keys;
  t

let copy t = { t with bits = Bytes.copy t.bits }
let bits t = t.nbits
let probes t = t.k
