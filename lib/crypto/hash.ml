type t = string

let size = 32

(* Digest observer: the telemetry layer hooks every hash invocation here to
   meter the "hash path" (state-root computation dominates real systems).
   Held in an [Atomic] so installing or clearing the observer from one
   domain is well-defined while others are hashing; one atomic load when
   detached — negligible on the hot path. *)
let digest_observer : (int -> unit) option Atomic.t = Atomic.make None
let set_digest_observer f = Atomic.set digest_observer f

let note_digest len =
  match Atomic.get digest_observer with Some f -> f len | None -> ()

let of_string s =
  note_digest (String.length s);
  Sha256.digest_string s

let of_string_quiet s = Sha256.digest_string s

let of_substring s ~off ~len =
  note_digest len;
  Sha256.digest_substring s ~off ~len

let of_concat a b =
  note_digest (String.length a + String.length b);
  Sha256.digest_concat a b

let of_concat_sub a b ~off ~len =
  note_digest (String.length a + len);
  Sha256.digest_concat_sub a b ~off ~len

let of_raw s =
  if String.length s <> size then
    invalid_arg
      (Printf.sprintf "Hash.of_raw: expected %d bytes, got %d" size
         (String.length s));
  s

let to_raw t = t
let to_hex t = Sha256.to_hex t

let of_hex s =
  if String.length s <> 2 * size then invalid_arg "Hash.of_hex: bad length";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Hash.of_hex: bad digit"
  in
  String.init size (fun i ->
      Char.chr ((digit s.[2 * i] lsl 4) lor digit s.[(2 * i) + 1]))

let short t = String.sub (to_hex t) 0 8
let equal = String.equal

let equal_sub t s ~off =
  if off < 0 || off > String.length s - size then invalid_arg "Hash.equal_sub";
  let word str i : int64 = String.get_int64_ne str i in
  word t 0 = word s off
  && word t 8 = word s (off + 8)
  && word t 16 = word s (off + 16)
  && word t 24 = word s (off + 24)

let compare = String.compare

(* The digest is already uniform, so folding the first word is enough. *)
let hash t =
  Char.code t.[0]
  lor (Char.code t.[1] lsl 8)
  lor (Char.code t.[2] lsl 16)
  lor (Char.code t.[3] lsl 24)
  land max_int

let byte t i = Char.code t.[i]
let null = String.make size '\000'
let is_null t = equal t null
let pp fmt t = Format.pp_print_string fmt (short t)

module Set = Set.Make (String)
module Map = Map.Make (String)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
