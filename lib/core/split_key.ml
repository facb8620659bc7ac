open Siri_crypto
module Store = Siri_store.Store
module Wire = Siri_codec.Wire

(* --- node views ----------------------------------------------------------- *)

let tag_leaf = 0
let tag_internal = 1

(* [offs] holds three ints per item — its start, its key's offset and its
   key's length — then the end of the last item, so item [i] is the byte
   range [offs.(3i), offs.(3i+3)).  A record's value follows its key as a
   varint-prefixed string; a ref's child hash is the [Hash.size] bytes
   after its key. *)
type view = { bytes : string; leaf : bool; level : int; offs : int array }

let count v = Array.length v.offs / 3
let is_leaf v = v.leaf
let level v = v.level
let bytes v = v.bytes
let item_start v i = v.offs.(3 * i)
let item_stop v i = v.offs.((3 * i) + 3)
let key_end v i = v.offs.((3 * i) + 1) + v.offs.((3 * i) + 2)
let key v i = String.sub v.bytes v.offs.((3 * i) + 1) v.offs.((3 * i) + 2)

let rec varint_end s p = if Char.code s.[p] < 0x80 then p + 1 else varint_end s (p + 1)

let value v i =
  let start = varint_end v.bytes (key_end v i) in
  String.sub v.bytes start (item_stop v i - start)

let child_off = key_end
let child v i = Hash.of_raw (String.sub v.bytes (child_off v i) Hash.size)

let empty_leaf = { bytes = ""; leaf = true; level = 0; offs = [| 0 |] }

(* One parser, two layouts.  The checks are the ones the entry-array
   decoder made, in the same order, so the same inputs are refused; the
   item count is bounded by the bytes left before the table is allocated
   (a record takes at least two bytes, a ref at least 1 + Hash.size). *)
let parse ~salted bytes =
  let r = Wire.Reader.of_string bytes in
  let tag = Wire.Reader.u8 r in
  if salted then Wire.Reader.skip r (Wire.Reader.varint r);
  let leaf = tag = tag_leaf in
  let level = if leaf then 0 else Wire.Reader.u8 r in
  let n = Wire.Reader.varint r in
  if n > Wire.Reader.remaining r / (if leaf then 2 else 1 + Hash.size) then
    raise Wire.Reader.Truncated;
  let offs = Array.make ((3 * n) + 1) 0 in
  for i = 0 to n - 1 do
    offs.(3 * i) <- Wire.Reader.pos r;
    let klen = Wire.Reader.varint r in
    offs.((3 * i) + 1) <- Wire.Reader.pos r;
    offs.((3 * i) + 2) <- klen;
    Wire.Reader.skip r klen;
    Wire.Reader.skip r (if leaf then Wire.Reader.varint r else Hash.size)
  done;
  offs.(3 * n) <- Wire.Reader.pos r;
  { bytes; leaf; level; offs }

(* [String.compare s (key v i)] without building the key.  Top-level so a
   binary search allocates nothing; indexes stay inside [s] and the key,
   whose range the parser checked.  Both are read 8 bytes at a time as
   big-endian [int64]s, which order like the bytes once the sign bit is
   flipped.  Of the first [n] bytes (the shorter length), a tail shorter
   than a word is read as the last 8, whose leading bytes are already
   known equal.  The [int64]s stay unboxed. *)
let rec compare_from s b ko i n slen klen =
  if i + 8 <= n then begin
    let x = String.get_int64_be s i and y = String.get_int64_be b (ko + i) in
    if Int64.equal x y then compare_from s b ko (i + 8) n slen klen
    else if Int64.logxor x Int64.min_int < Int64.logxor y Int64.min_int then -1
    else 1
  end
  else if i = n then Int.compare slen klen
  else if n >= 8 then begin
    let x = String.get_int64_be s (n - 8) and y = String.get_int64_be b (ko + n - 8) in
    if Int64.equal x y then Int.compare slen klen
    else if Int64.logxor x Int64.min_int < Int64.logxor y Int64.min_int then -1
    else 1
  end
  else compare_bytes s b ko i n slen klen

and compare_bytes s b ko i n slen klen =
  if i = n then Int.compare slen klen
  else
    let c = Char.compare (String.unsafe_get s i) (String.unsafe_get b (ko + i)) in
    if c < 0 then -1
    else if c > 0 then 1
    else compare_bytes s b ko (i + 1) n slen klen

let compare_key s v i =
  let ko = v.offs.((3 * i) + 1) and klen = v.offs.((3 * i) + 2) in
  let slen = String.length s in
  compare_from s v.bytes ko 0 (min slen klen) slen klen

let rec child_search v key lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if compare_key key v mid > 0 then child_search v key (mid + 1) hi
    else child_search v key lo mid

let child_for v key = child_search v key 0 (count v)

let rec entry_search v key lo hi =
  if lo >= hi then None
  else
    let mid = (lo + hi) / 2 in
    let c = compare_key key v mid in
    if c = 0 then Some (value v mid)
    else if c < 0 then entry_search v key lo mid
    else entry_search v key (mid + 1) hi

let find_entry v key = entry_search v key 0 (count v)

let entries v = Array.init (count v) (fun i -> (key v i, value v i))
let refs v = Array.init (count v) (fun i -> (key v i, child v i))

(* --- node writer ------------------------------------------------------------ *)

type item =
  | Ent of Kv.key * Kv.value
  | Ref of Kv.key * Hash.t
  | Raw of view * int

let str_size = Wire.Writer.str_size

let item_size = function
  | Ent (k, v) -> str_size k + str_size v
  | Ref (k, _) -> str_size k + Hash.size
  | Raw (v, i) -> item_stop v i - item_start v i

let item_key = function Ent (k, _) | Ref (k, _) -> k | Raw (v, i) -> key v i

let item_child = function
  | Ref (_, h) -> h
  | Raw (v, i) -> child v i
  | Ent _ -> invalid_arg "Split_key.item_child: a record"

let put_item b off = function
  | Ent (k, v) -> Wire.Exact.str b (Wire.Exact.str b off k) v
  | Ref (k, h) -> Wire.Exact.raw b (Wire.Exact.str b off k) (Hash.to_raw h)
  | Raw (v, i) ->
      let start = item_start v i in
      let len = item_stop v i - start in
      Bytes.blit_string v.bytes start b off len;
      off + len

let ser_item item =
  let b = Bytes.create (item_size item) in
  ignore (put_item b 0 item);
  Bytes.unsafe_to_string b

(* A node of [count] items whose bytes total [size]: the header written,
   and the offset its first item starts at. *)
let node_buffer ~salt ~level ~count ~size =
  if level < 0 || level > 0xFF then invalid_arg "Split_key: level out of range";
  let head =
    1
    + (match salt with Some s -> str_size s | None -> 0)
    + (if level > 0 then 1 else 0)
    + Wire.Writer.varint_size count
  in
  let b = Bytes.create (head + size) in
  Bytes.set b 0 (Char.chr (if level = 0 then tag_leaf else tag_internal));
  let off = match salt with Some s -> Wire.Exact.str b 1 s | None -> 1 in
  let off =
    if level = 0 then off
    else begin
      Bytes.set b off (Char.chr level);
      off + 1
    end
  in
  (b, Wire.Exact.varint b off count)

(* A ref's child hash is the last [Hash.size] bytes of its item, so an
   internal node's writer knows each child's offset as it places the
   item; a leaf has none. *)
let write_rev ~salt ~level ~count ~size items =
  let b, first = node_buffer ~salt ~level ~count ~size in
  let offsets = if level = 0 then [||] else Array.make count 0 in
  let rec fill i stop = function
    | [] -> if stop <> first || i <> -1 then invalid_arg "Split_key.write_rev: size"
    | item :: rest ->
        let off = stop - item_size item in
        ignore (put_item b off item);
        if level > 0 then offsets.(i) <- stop - Hash.size;
        fill (i - 1) off rest
  in
  fill (count - 1) (Bytes.length b) items;
  (Bytes.unsafe_to_string b, offsets)

let write_array ~salt ~level size put items =
  let total = Array.fold_left (fun acc x -> acc + size x) 0 items in
  let b, first = node_buffer ~salt ~level ~count:(Array.length items) ~size:total in
  ignore (Array.fold_left (fun off x -> put b off x) first items);
  Bytes.unsafe_to_string b

let write_leaf ~salt entries =
  write_array ~salt ~level:0
    (fun (k, v) -> str_size k + str_size v)
    (fun b off (k, v) -> Wire.Exact.str b (Wire.Exact.str b off k) v)
    entries

let write_internal ~salt level refs =
  let offsets = Array.make (Array.length refs) 0 in
  let i = ref 0 in
  let bytes =
    write_array ~salt ~level
      (fun (k, _) -> str_size k + Hash.size)
      (fun b off (k, h) ->
        let stop = Wire.Exact.raw b (Wire.Exact.str b off k) (Hash.to_raw h) in
        offsets.(!i) <- stop - Hash.size;
        incr i;
        stop)
      refs
  in
  (bytes, offsets)

(* --- reads --------------------------------------------------------------------- *)

let walk ~fetch root keys on_hit =
  let rec go h lo hi =
    let v = fetch h in
    if v.leaf then
      for i = lo to hi - 1 do
        match find_entry v keys.(i) with
        | Some x -> on_hit keys.(i) x
        | None -> ()
      done
    else begin
      let n = count v in
      let i = ref lo in
      while !i < hi do
        let c = child_for v keys.(!i) in
        if c = n then
          (* Beyond the last split key; so is every later key: this node
             witnesses their absence. *)
          i := hi
        else begin
          let j = ref (!i + 1) in
          while !j < hi && compare_key keys.(!j) v c <= 0 do
            incr j
          done;
          go (child v c) !i !j;
          i := !j
        end
      done
    end
  in
  go root 0 (Array.length keys)

(* Child i covers (split_{i-1}, split_i], so it can intersect [lo, hi)
   only when split_i >= lo and split_{i-1} < hi.  Keys arrive in global
   order, so the first key >= hi terminates the whole stream — frames
   still on the stack cover strictly larger keys and are never fetched.
   In a leaf, two binary searches find the records in [lo, hi): the
   records before the first are below [lo], and a record at the second
   (when the leaf has one) is the key that ends the stream. *)
let scan ~fetch root ~lo ~hi =
  let below_lo v i = match lo with None -> false | Some l -> compare_key l v i > 0 in
  let at_or_above_hi v i =
    match hi with None -> false | Some h -> compare_key h v i <= 0
  in
  let rec step stack () =
    match stack with
    | [] -> Seq.Nil
    | `Leaf (v, i, stop) :: rest ->
        if i < stop then Seq.Cons ((key v i, value v i), step (`Leaf (v, i + 1, stop) :: rest))
        else if stop < count v then Seq.Nil
        else step rest ()
    | `Node h :: rest ->
        let v = fetch h in
        if v.leaf then begin
          let first = match lo with None -> 0 | Some l -> child_for v l in
          let stop = match hi with None -> count v | Some h -> child_for v h in
          step (`Leaf (v, first, stop) :: rest) ()
        end
        else begin
          let frames = ref rest in
          for i = count v - 1 downto 0 do
            let hit =
              (not (below_lo v i)) && (i = 0 || not (at_or_above_hi v (i - 1)))
            in
            if hit then frames := `Node (child v i) :: !frames
          done;
          step !frames ()
        end
  in
  if Hash.is_null root then Seq.empty else step [ `Node root ]

(* One pool step per level: each segment of the level's items becomes one
   node, staged on the workers and installed in segment order, and its ref
   carries the segment's last key up to the next level. *)
let bulk_build ~pool store ~salt ~cut_leaves ~cut_refs entries =
  let level items segs stage =
    let refs =
      Store.put_parallel store ~map:(Siri_parallel.Pool.map pool)
        (fun (lo, hi) ->
          let slice = Array.sub items lo (hi - lo) in
          let s = stage slice in
          ((fst slice.(hi - lo - 1), s.Store.digest), [ s ]))
        segs
    in
    let n = Array.length segs in
    Store.count_parallel store ~tasks:n ~nodes:n;
    refs
  in
  let rec up height refs =
    if Array.length refs = 1 then snd refs.(0)
    else
      up (height + 1)
        (level refs (cut_refs refs) (fun slice ->
             let bytes, child_offsets = write_internal ~salt height slice in
             Store.stage_quiet ~child_offsets bytes))
  in
  up 1
    (level entries (cut_leaves entries) (fun slice ->
         Store.stage_quiet (write_leaf ~salt slice)))

(* The shape Tree_diff, Tree_stats and Range_proof work on, straight from
   a kind's node bytes. *)
let td_decode ~decode bytes =
  let v = decode bytes in
  let n = count v in
  if v.leaf then Tree_diff.Entries (List.init n (fun i -> (key v i, value v i)))
  else Tree_diff.Children (v.level, List.init n (fun i -> (key v i, child v i)))

let diff ~decode store left right =
  Tree_diff.diff ~decode:(fun h -> td_decode ~decode (Store.get store h)) ~left ~right

let stats ~decode store root =
  Tree_stats.collect ~get:(Store.get store) ~decode:(td_decode ~decode) ~root

let prove_range ~decode store root ~lo ~hi =
  Range_proof.prove ~get:(Store.get store) ~decode:(td_decode ~decode) ~root ~lo ~hi

let verify_range_proof ~decode ~root proof =
  Range_proof.verify ~decode:(td_decode ~decode) ~root proof
