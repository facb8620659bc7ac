open Siri_crypto
open Siri_core
module Store = Siri_store.Store
module Nibbles = Siri_codec.Nibbles
module Wire = Siri_codec.Wire

type t = { store : Store.t; root : Hash.t }

type node =
  | Leaf of Nibbles.t * Kv.value
  | Ext of Nibbles.t * Hash.t
  | Branch of Hash.t array * Kv.value option

let empty store = { store; root = Hash.null }
let of_root store root = { store; root }
let root t = t.root
let store t = t.store
let is_empty t = Hash.is_null t.root

(* --- node codec ------------------------------------------------------- *)

let tag_leaf = 0
let tag_ext = 1
let tag_branch = 2

(* A node's bytes and the offsets of its child hashes in them: an
   extension's child follows its path, and a branch's children follow its
   bitmap, packed in nibble order. *)
let encode node =
  let w = Wire.Writer.create () in
  let child_offsets =
    match node with
    | Leaf (path, v) ->
        Wire.Writer.u8 w tag_leaf;
        Wire.Writer.str w (Nibbles.compact_encode ~leaf:true path);
        Wire.Writer.str w v;
        [||]
    | Ext (path, child) ->
        Wire.Writer.u8 w tag_ext;
        Wire.Writer.str w (Nibbles.compact_encode ~leaf:false path);
        let off = Wire.Writer.length w in
        Wire.Writer.hash w child;
        [| off |]
    | Branch (children, value) ->
        Wire.Writer.u8 w tag_branch;
        let bitmap = ref 0 in
        Array.iteri
          (fun i c -> if not (Hash.is_null c) then bitmap := !bitmap lor (1 lsl i))
          children;
        Wire.Writer.u16 w !bitmap;
        let first = Wire.Writer.length w in
        Array.iter
          (fun c -> if not (Hash.is_null c) then Wire.Writer.hash w c)
          children;
        let n = (Wire.Writer.length w - first) / Hash.size in
        (match value with
        | None -> Wire.Writer.u8 w 0
        | Some v ->
            Wire.Writer.u8 w 1;
            Wire.Writer.str w v);
        Array.init n (fun i -> first + (i * Hash.size))
  in
  (Wire.Writer.contents w, child_offsets)

let decode bytes =
  let r = Wire.Reader.of_string bytes in
  let tag = Wire.Reader.u8 r in
  if tag = tag_leaf then begin
    let _, path = Nibbles.compact_decode (Wire.Reader.str r) in
    Leaf (path, Wire.Reader.str r)
  end
  else if tag = tag_ext then begin
    let _, path = Nibbles.compact_decode (Wire.Reader.str r) in
    Ext (path, Wire.Reader.hash r)
  end
  else begin
    let bitmap = Wire.Reader.u16 r in
    let children =
      Array.init 16 (fun i ->
          if bitmap land (1 lsl i) <> 0 then Wire.Reader.hash r else Hash.null)
    in
    let value =
      if Wire.Reader.u8 r = 1 then Some (Wire.Reader.str r) else None
    in
    Branch (children, value)
  end

let put store node =
  let bytes, child_offsets = encode node in
  Store.put store ~child_offsets bytes

(* Cached nodes are never mutated: every write path copies a Branch's
   child array before updating it, and Leaf/Ext payloads are immutable
   strings, so handing out the same decoded node repeatedly is safe. *)
module Nodes = Store.Decoded (struct
  type nonrec node = node

  let decode = decode
end)

let get = Nodes.get

(* --- the point walk ------------------------------------------------------ *)

(* One walk for the whole batch: at every internal node the still-alive
   slice of the sorted keys is partitioned by next nibble (string order
   equals nibble order, so each partition is a contiguous sub-slice), and
   each node on a shared prefix is fetched once for all keys below it.
   The keys' nibble paths are converted once and matched by offset, so the
   descent allocates nothing per node. *)
(* Whether [path] continues with the extension path [p] at offset [depth]. *)
let extends p path depth =
  let np = Nibbles.length p in
  Nibbles.length path - depth >= np && Nibbles.common_prefix_at p path ~off:depth = np

let walk ~fetch root keys on_hit =
  let paths = Array.map Nibbles.of_key keys in
  (* Keys lo..hi-1 agree on their first [depth] nibbles, already consumed
     on the way to [h]. *)
  let rec go h lo hi depth =
    if not (Hash.is_null h) then
      match fetch h with
      | Leaf (p, v) ->
          for i = lo to hi - 1 do
            if Nibbles.equal_at p paths.(i) ~off:depth then on_hit keys.(i) v
          done
      | Ext (p, child) ->
          let i = ref lo in
          while !i < hi && not (extends p paths.(!i) depth) do incr i done;
          let j = ref (min hi (!i + 1)) in
          while !j < hi && extends p paths.(!j) depth do incr j done;
          if !j > !i then go child !i !j (depth + Nibbles.length p)
      | Branch (children, bvalue) ->
          let i = ref lo in
          while !i < hi do
            let path = paths.(!i) in
            if Nibbles.length path = depth then begin
              (match bvalue with Some v -> on_hit keys.(!i) v | None -> ());
              incr i
            end
            else begin
              let nib = Nibbles.get path depth in
              let j = ref (!i + 1) in
              while
                !j < hi
                && Nibbles.length paths.(!j) > depth
                && Nibbles.get paths.(!j) depth = nib
              do
                incr j
              done;
              go children.(nib) !i !j (depth + 1);
              i := !j
            end
          done
  in
  go root 0 (Array.length keys) 0

(* --- insert ------------------------------------------------------------ *)

(* Wrap a subtree (already stored, rooted at [h]) under [prefix] nibbles:
   produces [h] itself for an empty prefix, otherwise an extension. *)
let extend store prefix h =
  if Nibbles.is_empty prefix then h else put store (Ext (prefix, h))

(* Attach the tail of a diverged path into a fresh branch slot set. *)
let branch_with store items value =
  let children = Array.make 16 Hash.null in
  List.iter (fun (nib, h) -> children.(nib) <- h) items;
  put store (Branch (children, value))

let rec ins store h path value =
  if Hash.is_null h then put store (Leaf (path, value))
  else
    match get store h with
    | Leaf (p, v) ->
        let common = Nibbles.common_prefix p path in
        if common = Nibbles.length p && common = Nibbles.length path then
          put store (Leaf (p, value))
        else begin
          (* Diverge: split into a branch under the shared prefix. *)
          let p' = Nibbles.drop p common and path' = Nibbles.drop path common in
          let slot_of tail v =
            (Nibbles.get tail 0, put store (Leaf (Nibbles.drop tail 1, v)))
          in
          let items = ref [] and bvalue = ref None in
          if Nibbles.is_empty p' then bvalue := Some v
          else items := slot_of p' v :: !items;
          if Nibbles.is_empty path' then bvalue := Some value
          else items := slot_of path' value :: !items;
          let b = branch_with store !items !bvalue in
          extend store (Nibbles.sub p 0 common) b
        end
    | Ext (p, child) ->
        let common = Nibbles.common_prefix p path in
        if common = Nibbles.length p then
          let child' = ins store child (Nibbles.drop path common) value in
          put store (Ext (p, child'))
        else begin
          let p' = Nibbles.drop p common and path' = Nibbles.drop path common in
          (* p' is non-empty here; the extension's own subtree hangs off
             nibble p'.(0), compacted if any path remains. *)
          let sub = extend store (Nibbles.drop p' 1) child in
          let items = ref [ (Nibbles.get p' 0, sub) ] and bvalue = ref None in
          if Nibbles.is_empty path' then bvalue := Some value
          else
            items :=
              (Nibbles.get path' 0, put store (Leaf (Nibbles.drop path' 1, value)))
              :: !items;
          let b = branch_with store !items !bvalue in
          extend store (Nibbles.sub p 0 common) b
        end
    | Branch (children, bvalue) ->
        if Nibbles.is_empty path then put store (Branch (children, Some value))
        else begin
          let i = Nibbles.get path 0 in
          let children = Array.copy children in
          children.(i) <- ins store children.(i) (Nibbles.drop path 1) value;
          put store (Branch (children, bvalue))
        end

let insert t key value =
  { t with root = ins t.store t.root (Nibbles.of_key key) value }

(* --- remove ------------------------------------------------------------ *)

(* After deletion a branch may be left with a single child and no value, or
   only a value; collapse it to keep the shape canonical. *)
let collapse_branch store children bvalue =
  let live =
    Array.to_list (Array.mapi (fun i c -> (i, c)) children)
    |> List.filter (fun (_, c) -> not (Hash.is_null c))
  in
  match (live, bvalue) with
  | [], None -> Hash.null
  | [], Some v -> put store (Leaf (Nibbles.empty, v))
  | [ (i, c) ], None -> (
      let prefix = Nibbles.cons i Nibbles.empty in
      match get store c with
      | Leaf (p, v) -> put store (Leaf (Nibbles.concat prefix p, v))
      | Ext (p, gc) -> put store (Ext (Nibbles.concat prefix p, gc))
      | Branch _ -> put store (Ext (prefix, c)))
  | _ -> put store (Branch (children, bvalue))

(* Re-compact an extension whose child may have collapsed. *)
let collapse_ext store p child =
  if Hash.is_null child then Hash.null
  else
    match get store child with
    | Leaf (p', v) -> put store (Leaf (Nibbles.concat p p', v))
    | Ext (p', gc) -> put store (Ext (Nibbles.concat p p', gc))
    | Branch _ -> put store (Ext (p, child))

let rec del store h path =
  if Hash.is_null h then Hash.null
  else
    match get store h with
    | Leaf (p, _) -> if Nibbles.equal p path then Hash.null else h
    | Ext (p, child) ->
        let np = Nibbles.length p in
        if Nibbles.length path >= np && Nibbles.common_prefix p path = np then begin
          let child' = del store child (Nibbles.drop path np) in
          if Hash.equal child' child then h else collapse_ext store p child'
        end
        else h
    | Branch (children, bvalue) ->
        if Nibbles.is_empty path then
          if bvalue = None then h else collapse_branch store children None
        else begin
          let i = Nibbles.get path 0 in
          let child' = del store children.(i) (Nibbles.drop path 1) in
          if Hash.equal child' children.(i) then h
          else begin
            let children = Array.copy children in
            children.(i) <- child';
            collapse_branch store children bvalue
          end
        end

let remove t key = { t with root = del t.store t.root (Nibbles.of_key key) }

let batch t ops =
  List.fold_left
    (fun t op ->
      match op with
      | Kv.Put (k, v) -> insert t k v
      | Kv.Del k -> remove t k)
    t ops

let of_entries store entries =
  batch (empty store) (List.map (fun (k, v) -> Kv.Put (k, v)) entries)

(* --- parallel bulk load -------------------------------------------------- *)

(* Canonical bottom-up construction over sorted distinct keys.  The trie
   shape is key-set–determined (the MPT is history-independent), so this
   produces exactly the root that the insert-fold above would — but the
   expensive part, encoding and SHA-256 over every node, is pure and can
   be fanned out over a domain pool: the key space is split at the first
   branch point into up to 16 independent subtries, each worker stages its
   subtrie's nodes quietly ([Store.stage_quiet]), and the coordinator then
   replays the digest notifications and installs the batches in task
   order, so every observable effect is identical at any domain count. *)

module Pool = Siri_parallel.Pool

(* Length of the common nibble prefix of paths[lo..hi-1] beyond [depth].
   The slice is sorted, so the extremes bound the whole range. *)
let common_from paths lo hi depth =
  let p0 = fst paths.(lo) and p1 = fst paths.(hi - 1) in
  let n0 = Nibbles.length p0 and n1 = Nibbles.length p1 in
  let i = ref depth in
  while !i < n0 && !i < n1 && Nibbles.get p0 !i = Nibbles.get p1 !i do incr i done;
  !i - depth

(* Build the canonical subtrie over paths[lo..hi-1], all sharing their
   first [depth] nibbles; stages nodes into [acc] (children before
   parents) and returns the subtrie root hash. *)
let rec build_slice acc paths lo hi depth =
  if hi - lo = 1 then begin
    let p, v = paths.(lo) in
    let s = Store.stage_quiet (fst (encode (Leaf (Nibbles.drop p depth, v)))) in
    acc := s :: !acc;
    s.Store.digest
  end
  else begin
    let lcp = common_from paths lo hi depth in
    let bdepth = depth + lcp in
    (* A key ending exactly at the branch point becomes the branch value;
       keys are whole bytes so it can only be the slice's first (shortest)
       path. *)
    let bvalue = ref None and start = ref lo in
    if Nibbles.length (fst paths.(lo)) = bdepth then begin
      bvalue := Some (snd paths.(lo));
      start := lo + 1
    end;
    let children = Array.make 16 Hash.null in
    let i = ref !start in
    while !i < hi do
      let nib = Nibbles.get (fst paths.(!i)) bdepth in
      let j = ref (!i + 1) in
      while !j < hi && Nibbles.get (fst paths.(!j)) bdepth = nib do incr j done;
      children.(nib) <- build_slice acc paths !i !j (bdepth + 1);
      i := !j
    done;
    let stage node =
      let bytes, child_offsets = encode node in
      let s = Store.stage_quiet ~child_offsets bytes in
      acc := s :: !acc;
      s.Store.digest
    in
    let b = stage (Branch (children, !bvalue)) in
    if lcp = 0 then b else stage (Ext (Nibbles.sub (fst paths.(lo)) depth lcp, b))
  end

let of_sorted ?(pool = Pool.sequential) store entries =
  match Kv.sort_entries entries with
  | [] -> empty store
  | [ (k, v) ] -> { store; root = put store (Leaf (Nibbles.of_key k, v)) }
  | entries ->
      let paths =
        Array.of_list (List.map (fun (k, v) -> (Nibbles.of_key k, v)) entries)
      in
      let n = Array.length paths in
      let lcp = common_from paths 0 n 0 in
      let bvalue = ref None and start = ref 0 in
      if Nibbles.length (fst paths.(0)) = lcp then begin
        bvalue := Some (snd paths.(0));
        start := 1
      end;
      (* Contiguous runs sharing the nibble right after the common prefix:
         the fan-out units (at most 16). *)
      let groups = ref [] in
      let i = ref !start in
      while !i < n do
        let nib = Nibbles.get (fst paths.(!i)) lcp in
        let j = ref (!i + 1) in
        while !j < n && Nibbles.get (fst paths.(!j)) lcp = nib do incr j done;
        groups := (nib, !i, !j) :: !groups;
        i := !j
      done;
      let groups = Array.of_list (List.rev !groups) in
      let subtries =
        Store.put_parallel store ~map:(Pool.map pool)
          (fun (nib, lo, hi) ->
            let acc = ref [] in
            let h = build_slice acc paths lo hi (lcp + 1) in
            ((nib, h, List.length !acc), List.rev !acc))
          groups
      in
      let children = Array.make 16 Hash.null in
      Array.iter (fun (nib, h, _) -> children.(nib) <- h) subtries;
      Store.count_parallel store ~tasks:(Array.length groups)
        ~nodes:(Array.fold_left (fun acc (_, _, n) -> acc + n) 0 subtries);
      let b = put store (Branch (children, !bvalue)) in
      let root =
        if lcp = 0 then b
        else put store (Ext (Nibbles.sub (fst paths.(0)) 0 lcp, b))
      in
      { store; root }

(* --- streaming scan --------------------------------------------------------

   Lazy key-ordered DFS over the half-open interval [lo, hi).  All keys
   in a subtree extend its accumulated nibble prefix, so the subtree is
   skipped when that prefix already falls outside the bounds: strictly
   below lo's nibbles, above hi's, or equal to or extending hi's (keys
   equal to hi are excluded by half-openness, longer ones sort after it).
   An explicit frame stack captured in a [Seq.t] fetches nodes only as the
   consumer demands entries.  Nibble strings compare like the keys they
   encode (big-endian nibble order), so DFS order is key order; a branch
   value's key equals the prefix itself and is emitted before any
   child. *)
let scan t ~lo ~hi =
  let lo_n = Option.map Nibbles.of_key lo in
  let hi_n = Option.map Nibbles.of_key hi in
  let nib_string nibs =
    String.init (Nibbles.length nibs) (fun i -> Char.chr (Nibbles.get nibs i))
  in
  let cmp_prefix prefix bound =
    let lp = String.length prefix and lb = Nibbles.length bound in
    let l = min lp lb in
    let rec go i =
      if i = l then 0
      else
        let c = compare (Char.code prefix.[i]) (Nibbles.get bound i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  in
  let prune prefix =
    (match lo_n with Some b -> cmp_prefix prefix b < 0 | None -> false)
    || (match hi_n with
       | Some b ->
           let c = cmp_prefix prefix b in
           c > 0 || (c = 0 && String.length prefix >= Nibbles.length b)
       | None -> false)
  in
  let key_of prefix = Nibbles.to_key (Nibbles.of_nibble_string prefix) in
  let wanted k =
    (match lo with None -> true | Some l -> String.compare k l >= 0)
    && match hi with None -> true | Some h -> String.compare k h < 0
  in
  let rec step stack () =
    match stack with
    | [] -> Seq.Nil
    | `Emit (k, v) :: rest -> Seq.Cons ((k, v), step rest)
    | `Node (prefix, h) :: rest ->
        if Hash.is_null h || prune prefix then step rest ()
        else (
          match get t.store h with
          | Leaf (p, v) ->
              let prefix = prefix ^ nib_string p in
              let k = key_of prefix in
              if (not (prune prefix)) && wanted k then
                Seq.Cons ((k, v), step rest)
              else step rest ()
          | Ext (p, child) -> step (`Node (prefix ^ nib_string p, child) :: rest) ()
          | Branch (children, bvalue) ->
              let frames = ref rest in
              for i = 15 downto 0 do
                let c = children.(i) in
                if not (Hash.is_null c) then
                  frames :=
                    `Node (prefix ^ String.make 1 (Char.chr i), c) :: !frames
              done;
              let frames =
                match bvalue with
                | Some v when wanted (key_of prefix) ->
                    `Emit (key_of prefix, v) :: !frames
                | _ -> !frames
              in
              step frames ())
  in
  step [ `Node ("", t.root) ]

(* --- diff --------------------------------------------------------------- *)

(* A subtree reference during diff: either a stored node (hash known, can be
   pruned by equality) or a virtual node produced when peeling one nibble off
   a compacted path. *)
type vref =
  | VHash of Hash.t
  | VLeaf of Nibbles.t * Kv.value
  | VExt of Nibbles.t * Hash.t

(* Expand a reference at the current prefix into (value-at-prefix, child
   table indexed by nibble). *)
let rec expand store vr =
  match vr with
  | VLeaf (p, v) ->
      if Nibbles.is_empty p then (Some v, [||])
      else begin
        let children = Array.make 16 None in
        children.(Nibbles.get p 0) <- Some (VLeaf (Nibbles.drop p 1, v));
        (None, children)
      end
  | VExt (p, h) ->
      if Nibbles.is_empty p then
        (* Fully consumed extension: behave as the referenced node. *)
        expand_hash store h
      else begin
        let children = Array.make 16 None in
        let rest = Nibbles.drop p 1 in
        children.(Nibbles.get p 0) <-
          Some (if Nibbles.is_empty rest then VHash h else VExt (rest, h));
        (None, children)
      end
  | VHash h -> expand_hash store h

and expand_hash store h =
  if Hash.is_null h then (None, [||])
  else
    match get store h with
    | Leaf (p, v) -> expand store (VLeaf (p, v))
    | Ext (p, c) -> expand store (VExt (p, c))
    | Branch (children, bvalue) ->
        (bvalue, Array.map (fun c ->
             if Hash.is_null c then None else Some (VHash c)) children)

let vref_equal a b =
  match (a, b) with VHash x, VHash y -> Hash.equal x y | _ -> false

let collect_side store vr prefix_buf side acc =
  (* All entries of a one-sided subtree, as diff entries. *)
  let rec go vr acc =
    let value, children = expand store vr in
    let acc =
      match value with
      | None -> acc
      | Some v ->
          let key = Nibbles.to_key (Nibbles.of_nibble_string (Buffer.contents prefix_buf)) in
          (match side with
          | `Left -> { Kv.key; left = Some v; right = None }
          | `Right -> { Kv.key; left = None; right = Some v })
          :: acc
    in
    let acc = ref acc in
    Array.iteri
      (fun i child ->
        match child with
        | None -> ()
        | Some c ->
            Buffer.add_char prefix_buf (Char.chr i);
            acc := go c !acc;
            Buffer.truncate prefix_buf (Buffer.length prefix_buf - 1))
      children;
    !acc
  in
  go vr acc

let diff t1 t2 =
  let store = t1.store in
  let prefix = Buffer.create 32 in
  let rec go l r acc =
    match (l, r) with
    | None, None -> acc
    | Some l, None -> collect_side store l prefix `Left acc
    | None, Some r -> collect_side store r prefix `Right acc
    | Some l, Some r when vref_equal l r -> acc
    | Some l, Some r ->
        let lv, lc = expand store l in
        let rv, rc = expand store r in
        let acc =
          match (lv, rv) with
          | None, None -> acc
          | Some a, Some b when String.equal a b -> acc
          | _ ->
              { Kv.key = Nibbles.to_key (Nibbles.of_nibble_string (Buffer.contents prefix));
                left = lv;
                right = rv }
              :: acc
        in
        let acc = ref acc in
        let child arr i =
          if Array.length arr = 0 then None else arr.(i)
        in
        for i = 0 to 15 do
          match (child lc i, child rc i) with
          | None, None -> ()
          | cl, cr ->
              Buffer.add_char prefix (Char.chr i);
              acc := go cl cr !acc;
              Buffer.truncate prefix (Buffer.length prefix - 1)
        done;
        !acc
  in
  let wrap h = if Hash.is_null h then None else Some (VHash h) in
  List.rev (go (wrap t1.root) (wrap t2.root) [])

(* --- generic packaging --------------------------------------------------- *)

let rec generic ?pool t =
  let view = generic ?pool in
  Generic.make ~name:"mpt" ~store:t.store ~root:t.root ~decode
    ~get:(get t.store) ~walk ~order:(Ordered (scan t))
    ~batch:(fun ops -> view (batch t ops))
    ~bulk_load:(fun entries -> view (of_sorted ?pool t.store entries))
    ~diff:(fun other -> diff t (of_root t.store other))
    ~reopen:(fun r -> view (of_root t.store r))
