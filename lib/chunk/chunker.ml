module Hash = Siri_crypto.Hash

type config = {
  window : int;
  pattern_bits : int;
  min_size : int;
  max_size : int;
}

let config ?(window = 67) ?(min_size = 0) ?max_size ~pattern_bits () =
  if pattern_bits < 1 || pattern_bits > 32 then
    invalid_arg "Chunker.config: pattern_bits out of range";
  let max_size =
    match max_size with Some m -> m | None -> 64 * (1 lsl pattern_bits)
  in
  if min_size < 0 || max_size <= min_size then
    invalid_arg "Chunker.config: bad min/max sizes";
  { window; pattern_bits; min_size; max_size }

let config_for_leaf_size target =
  let rec bits b = if 1 lsl b >= target || b >= 30 then b else bits (b + 1) in
  config ~pattern_bits:(bits 1) ()

type t = {
  c : config;
  bh : Buzhash.t;
  mask : int;
  mutable bytes : int;    (* bytes since last boundary *)
  mutable matched : bool; (* pattern seen within the current item run *)
}

let create c =
  { c;
    bh = Buzhash.create ~window:c.window;
    mask = (1 lsl c.pattern_bits) - 1;
    bytes = 0;
    matched = false }

let conf t = t.c

let reset t =
  Buzhash.reset t.bh;
  t.bytes <- 0;
  t.matched <- false

let feed_sub t s ~off ~len =
  (* The window rolls within one item only: whether an item carries a
     boundary is then a property of the item's own bytes, so re-chunking
     after an edit realigns with the old boundaries at the very next
     pattern-carrying item (fast resynchronisation). *)
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Chunker.feed_sub";
  Buzhash.reset t.bh;
  for i = off to off + len - 1 do
    let h = Buzhash.roll t.bh s.[i] in
    t.bytes <- t.bytes + 1;
    if (not t.matched) && t.bytes >= t.c.min_size && h land t.mask = t.mask
    then t.matched <- true
  done;
  let boundary = t.matched || t.bytes >= t.c.max_size in
  if boundary then reset t;
  boundary

let feed t item = feed_sub t item ~off:0 ~len:(String.length item)

let skip t len =
  (* [matched] is always false between calls ([feed] resets on firing), so
     an item whose bytes carry no pattern can only end the chunk through
     the size cap.  Only valid with [min_size = 0]: otherwise whether an
     item's pattern counts depends on the bytes before it. *)
  t.bytes <- t.bytes + len;
  let boundary = t.bytes >= t.c.max_size in
  if boundary then reset t;
  boundary

let size t = t.bytes

let hash_boundary_sub c s ~off =
  (* Fold the first 8 digest bytes into an int and test the pattern; the
     digest is uniform so any fixed bits work. *)
  if off < 0 || off + Hash.size > String.length s then
    invalid_arg "Chunker.hash_boundary_sub";
  let v =
    let acc = ref 0 in
    for i = 0 to 7 do
      acc := (!acc lsl 8) lor Char.code s.[off + i]
    done;
    !acc
  in
  let mask = (1 lsl c.pattern_bits) - 1 in
  v land mask = mask

let hash_boundary c h = hash_boundary_sub c (Hash.to_raw h) ~off:0

let split c items =
  let t = create c in
  let chunks = ref [] and current = ref [] in
  let flush () =
    if !current <> [] then begin
      chunks := List.rev !current :: !chunks;
      current := []
    end
  in
  List.iter
    (fun item ->
      current := item :: !current;
      if feed t item then flush ())
    items;
  flush ();
  List.rev !chunks
