open Siri_crypto
open Siri_core
module Store = Siri_store.Store
module Wire = Siri_codec.Wire
module Chunker = Siri_chunk.Chunker

type internal_rule =
  | By_child_hash of { bits : int; min_items : int; max_items : int }
  | By_rolling of Chunker.config

type config = {
  leaf : Chunker.config;
  internal : internal_rule;
  non_recursively_identical : bool;
  local_split : bool;
      (* Non-structurally-invariant mode (Section 5.5.1): updates stay
         inside the touched node, which splits on overflow but never
         re-merges with its successors — so boundaries depend on update
         history, like a B+-tree. *)
}

let config ?(leaf_target = 1024) ?(internal_bits = 5) ?internal
    ?(non_recursively_identical = false) () =
  let internal =
    match internal with
    | Some rule -> rule
    | None ->
        By_child_hash
          { bits = internal_bits; min_items = 2; max_items = 64 * (1 lsl internal_bits) }
  in
  { leaf = Chunker.config_for_leaf_size leaf_target;
    internal;
    non_recursively_identical;
    local_split = false }

let config_prolly ?(leaf_target = 4096) ?(internal_target = 4096) () =
  { leaf = Chunker.config_for_leaf_size leaf_target;
    internal = By_rolling (Chunker.config_for_leaf_size internal_target);
    non_recursively_identical = false;
    local_split = false }

let config_non_structurally_invariant ?(leaf_target = 1024) () =
  (* Pattern so rare (2^22 bytes expected) that almost every boundary is a
     forced split at the maximum size; combined with local (in-node) update
     handling, split points depend on the update history. *)
  { leaf = Chunker.config ~pattern_bits:22 ~max_size:leaf_target ();
    internal = By_child_hash { bits = 5; min_items = 2; max_items = 32 };
    non_recursively_identical = false;
    local_split = true }

let config_non_recursively_identical ?(leaf_target = 1024) () =
  { (config ~leaf_target ()) with non_recursively_identical = true }

type t = { store : Store.t; cfg : config; root : Hash.t; salt : string }

let empty store cfg = { store; cfg; root = Hash.null; salt = "" }
let of_root store cfg root = { store; cfg; root; salt = "" }
let root t = t.root
let store t = t.store
let conf t = t.cfg

(* Fresh salts for the non-recursively-identical ablation: every write makes
   byte-distinct nodes, so the content-addressed store can never share.
   Atomic so concurrent builds never mint the same salt. *)
let salt_counter = Atomic.make 0

let next_salt () = Printf.sprintf "v%d" (Atomic.fetch_and_add salt_counter 1 + 1)

(* --- node codec ---------------------------------------------------------- *)

let tag_leaf = 0
let tag_internal = 1

type node = Split_key.node =
  | Leaf of (Kv.key * Kv.value) array
  | Internal of int * (Kv.key * Hash.t) array

let encode_leaf salt entries =
  let w = Wire.Writer.create ~capacity:1024 () in
  Wire.Writer.u8 w tag_leaf;
  Wire.Writer.str w salt;
  Wire.Writer.varint w (Array.length entries);
  Array.iter
    (fun (k, v) ->
      Wire.Writer.str w k;
      Wire.Writer.str w v)
    entries;
  Wire.Writer.contents w

let encode_internal salt level refs =
  let w = Wire.Writer.create ~capacity:1024 () in
  Wire.Writer.u8 w tag_internal;
  Wire.Writer.str w salt;
  Wire.Writer.u8 w level;
  Wire.Writer.varint w (Array.length refs);
  Array.iter
    (fun (k, h) ->
      Wire.Writer.str w k;
      Wire.Writer.hash w h)
    refs;
  Wire.Writer.contents w

let decode bytes =
  let r = Wire.Reader.of_string bytes in
  let tag = Wire.Reader.u8 r in
  let _salt = Wire.Reader.str r in
  if tag = tag_leaf then
    Leaf
      (Array.init (Wire.Reader.varint r) (fun _ ->
           let k = Wire.Reader.str r in
           let v = Wire.Reader.str r in
           (k, v)))
  else begin
    let level = Wire.Reader.u8 r in
    Internal
      ( level,
        Array.init (Wire.Reader.varint r) (fun _ ->
            let k = Wire.Reader.str r in
            let h = Wire.Reader.hash r in
            (k, h)) )
  end

(* Decoded entry/ref arrays are never mutated (writes rebuild via the
   streaming rebuilder), so sharing one decoding is safe.  The salt dropped
   by [decode] is irrelevant to reads. *)
module Nodes = Store.Decoded (struct
  type nonrec node = node

  let decode = decode
end)

let get = Nodes.get

(* Serialized form of a record as fed to the rolling hash. *)
let ser_entry k v =
  let w = Wire.Writer.create ~capacity:(String.length k + String.length v + 8) () in
  Wire.Writer.str w k;
  Wire.Writer.str w v;
  Wire.Writer.contents w

let ser_ref k h =
  let w = Wire.Writer.create ~capacity:(String.length k + 40) () in
  Wire.Writer.str w k;
  Wire.Writer.hash w h;
  Wire.Writer.contents w

(* --- streaming rebuilder -------------------------------------------------- *)

(* Stream 0 carries records; stream l>=1 carries refs to height-(l-1) nodes.
   Chunk boundaries are decided as items arrive; a finished chunk becomes a
   node whose ref is pushed onto the stream above.  Reusing a clean subtree
   of height l is legal exactly when streams 0..l are at a boundary (all
   pendings empty, rolling states reset). *)

type item = Ent of Kv.key * Kv.value | Ref of Kv.key * Hash.t

type stream = {
  chunker : Chunker.t option;  (* stream 0, or internal By_rolling *)
  mutable pending : item list;  (* reversed *)
  mutable pending_count : int;
  mutable total : int;
}

type rebuilder = {
  rstore : Store.t;
  rcfg : config;
  rsalt : string;
  mutable streams : stream array;
}

let new_stream cfg lvl =
  let chunker =
    if lvl = 0 then Some (Chunker.create cfg.leaf)
    else
      match cfg.internal with
      | By_rolling c -> Some (Chunker.create c)
      | By_child_hash _ -> None
  in
  { chunker; pending = []; pending_count = 0; total = 0 }

let rebuilder store cfg salt =
  { rstore = store; rcfg = cfg; rsalt = salt; streams = [||] }

let stream r lvl =
  let n = Array.length r.streams in
  if lvl >= n then begin
    let bigger =
      Array.init (lvl + 1) (fun i ->
          if i < n then r.streams.(i) else new_stream r.rcfg i)
    in
    r.streams <- bigger
  end;
  r.streams.(lvl)

let item_key = function Ent (k, _) -> k | Ref (k, _) -> k

let make_node r lvl items =
  (* [items] in order; returns the ref of the created node. *)
  let last_key = item_key (List.nth items (List.length items - 1)) in
  let h =
    if lvl = 0 then
      let entries =
        Array.of_list
          (List.map (function Ent (k, v) -> (k, v) | Ref _ -> assert false) items)
      in
      Store.put r.rstore (encode_leaf r.rsalt entries)
    else
      let refs =
        Array.of_list
          (List.map (function Ref (k, h) -> (k, h) | Ent _ -> assert false) items)
      in
      Store.put r.rstore
        ~children:(List.map (fun (_, h) -> h) (Array.to_list refs))
        (encode_internal r.rsalt lvl refs)
  in
  (last_key, h)

let rec add_item r lvl item =
  let s = stream r lvl in
  s.pending <- item :: s.pending;
  s.pending_count <- s.pending_count + 1;
  s.total <- s.total + 1;
  let boundary =
    match (lvl, r.rcfg.internal, item) with
    | 0, _, Ent (k, v) -> (
        match s.chunker with
        | Some c -> Chunker.feed c (ser_entry k v)
        | None -> assert false)
    | _, By_rolling _, Ref (k, h) -> (
        match s.chunker with
        | Some c ->
            (* Never cut a single-ref chunk: a chain of one-child internal
               nodes would grow the tree height unboundedly. *)
            let fired = Chunker.feed c (ser_ref k h) in
            fired && s.pending_count >= 2
        | None -> assert false)
    | _, By_child_hash { bits; min_items; max_items }, Ref (_, h) ->
        if s.pending_count >= max_items then true
        else
          s.pending_count >= min_items
          && Chunker.hash_boundary
               (Chunker.config ~pattern_bits:bits ()) h
    | _ -> assert false
  in
  if boundary then flush_stream r lvl

and flush_stream r lvl =
  let s = stream r lvl in
  if s.pending_count > 0 then begin
    let items = List.rev s.pending in
    s.pending <- [];
    s.pending_count <- 0;
    (match s.chunker with Some c -> Chunker.reset c | None -> ());
    let k, h = make_node r lvl items in
    add_item r (lvl + 1) (Ref (k, h))
  end

let add_entry r k v = add_item r 0 (Ent (k, v))

(* A clean subtree of height [h] can be reused iff all streams up to and
   including [h] are at a boundary. *)
let can_reuse r height =
  let rec check lvl =
    if lvl > height then true
    else if lvl >= Array.length r.streams then true
    else r.streams.(lvl).pending_count = 0 && check (lvl + 1)
  in
  check 0

let finish r =
  let above_active lvl =
    let rec check l =
      l < Array.length r.streams
      && (r.streams.(l).total > 0 || check (l + 1))
    in
    check (lvl + 1)
  in
  let rec loop lvl =
    let s = stream r lvl in
    if lvl >= 1 && s.total = 1 && s.pending_count = 1 && not (above_active lvl)
    then
      match s.pending with
      | [ Ref (_, h) ] -> h
      | _ -> assert false
    else begin
      flush_stream r lvl;
      if s.total = 0 && not (above_active lvl) then Hash.null else loop (lvl + 1)
    end
  in
  loop 0

(* --- batch update ---------------------------------------------------------- *)

(* Split sorted ops among children: child i takes ops with key <= its split
   key; the last child also takes everything beyond the largest split key. *)
let partition_ops refs ops =
  let n = Array.length refs in
  let buckets = Array.make n [] in
  let rec go i ops =
    match ops with
    | [] -> ()
    | op :: rest ->
        let key = Kv.key_of_op op in
        let rec advance i =
          if i >= n - 1 then n - 1
          else if String.compare key (fst refs.(i)) <= 0 then i
          else advance (i + 1)
        in
        let i = advance i in
        buckets.(i) <- op :: buckets.(i);
        go i rest
  in
  go 0 ops;
  Array.map List.rev buckets

let rec emit r h height ops ~reuse =
  if ops = [] && reuse && can_reuse r height then begin
    (* Whole subtree is clean and chunking is aligned: reuse by ref.  The
       subtree's max key is needed by the parent; it is the key of its last
       item, which equals the split key the parent stored — the caller passes
       it via [h]'s ref; here we only have the hash, so fetch lazily. *)
    match get r.rstore h with
    | Leaf entries when Array.length entries = 0 -> ()
    | Leaf entries ->
        add_item r (height + 1) (Ref (fst entries.(Array.length entries - 1), h))
    | Internal (_, refs) ->
        add_item r (height + 1) (Ref (fst refs.(Array.length refs - 1), h))
  end
  else
    match get r.rstore h with
    | Leaf entries ->
        let merged = Kv.apply_sorted (Array.to_list entries) ops in
        List.iter (fun (k, v) -> add_entry r k v) merged;
        (* Local mode: contain the edit within this node's span — cut here
           instead of re-chunking into the following nodes. *)
        if r.rcfg.local_split then flush_stream r 0
    | Internal (lvl, refs) ->
        let buckets = partition_ops refs ops in
        Array.iteri
          (fun i (key, child) ->
            if buckets.(i) = [] && reuse && can_reuse r (lvl - 1) then
              add_item r lvl (Ref (key, child))
            else emit r child (lvl - 1) buckets.(i) ~reuse)
          refs

let rebuild t ops salt ~reuse =
  let r = rebuilder t.store t.cfg salt in
  (if Hash.is_null t.root then
     List.iter (fun (k, v) -> add_entry r k v) (Kv.apply_sorted [] ops)
   else emit r t.root max_int ops ~reuse);
  { t with root = finish r; salt }

let batch t ops =
  let ops = Kv.sort_ops ops in
  if ops = [] then t
  else if t.cfg.non_recursively_identical then
    (* Fresh salt: every node of the new version is byte-distinct, and the
       whole tree must be rewritten. *)
    rebuild t ops (next_salt ()) ~reuse:false
  else rebuild t ops t.salt ~reuse:true

let insert t k v = batch t [ Kv.Put (k, v) ]
let remove t k = batch t [ Kv.Del k ]

let of_entries store cfg entries =
  batch (empty store cfg) (List.map (fun (k, v) -> Kv.Put (k, v)) entries)

(* --- parallel bulk load ---------------------------------------------------- *)

(* Chunk boundaries depend only on the item sequence (the tree is
   history-independent for a full build), so a bulk load can be split into
   two passes per level: a sequential scan that replays the streaming
   boundary rules to find the cut points, then a parallel pass encoding
   and hashing each chunk on the pool.  The scan is a rolling hash over
   the serialized items — an order of magnitude cheaper than the SHA-256
   work it unlocks. *)

module Pool = Siri_parallel.Pool

(* Cut points for the record stream (level 0): a chunk ends exactly where
   [add_item 0] would fire.  [Chunker.feed] resets its own state when it
   fires, matching the streaming rebuilder. *)
let leaf_segments cfg entries =
  let n = Array.length entries in
  let ch = Chunker.create cfg.leaf in
  let segs = ref [] and lo = ref 0 in
  Array.iteri
    (fun i (k, v) ->
      if Chunker.feed ch (ser_entry k v) then begin
        segs := (!lo, i + 1) :: !segs;
        lo := i + 1
      end)
    entries;
  if !lo < n then segs := (!lo, n) :: !segs;
  Array.of_list (List.rev !segs)

(* Cut points for a ref stream (level >= 1), mirroring [add_item]'s
   internal-rule cases including the never-cut-a-single-ref guard. *)
let ref_segments cfg refs =
  let n = Array.length refs in
  let segs = ref [] and lo = ref 0 in
  (match cfg.internal with
  | By_rolling c ->
      let ch = Chunker.create c in
      Array.iteri
        (fun i (k, h) ->
          let fired = Chunker.feed ch (ser_ref k h) in
          if fired && i + 1 - !lo >= 2 then begin
            segs := (!lo, i + 1) :: !segs;
            lo := i + 1
          end)
        refs
  | By_child_hash { bits; min_items; max_items } ->
      let c = Chunker.config ~pattern_bits:bits () in
      Array.iteri
        (fun i (_, h) ->
          let pending = i + 1 - !lo in
          if
            pending >= max_items
            || (pending >= min_items && Chunker.hash_boundary c h)
          then begin
            segs := (!lo, i + 1) :: !segs;
            lo := i + 1
          end)
        refs);
  if !lo < n then segs := (!lo, n) :: !segs;
  Array.of_list (List.rev !segs)

let of_sorted ?(pool = Pool.sequential) store cfg entries =
  match Kv.sort_entries entries with
  | [] -> empty store cfg
  | entries ->
      let salt = if cfg.non_recursively_identical then next_salt () else "" in
      { store;
        cfg;
        root =
          Split_key.bulk_build ~pool store ~cut_leaves:(leaf_segments cfg)
            ~cut_refs:(ref_segments cfg) ~encode_leaf:(encode_leaf salt)
            ~encode_internal:(encode_internal salt) (Array.of_list entries);
        salt }

(* --- queries ----------------------------------------------------------------- *)

let height t =
  if Hash.is_null t.root then 0
  else
    match get t.store t.root with
    | Leaf _ -> 1
    | Internal (lvl, _) -> lvl + 1

let leaf_sizes t =
  let acc = ref [] in
  let rec go h =
    match get t.store h with
    | Leaf _ -> acc := Store.size_of t.store h :: !acc
    | Internal (_, refs) -> Array.iter (fun (_, c) -> go c) refs
  in
  if not (Hash.is_null t.root) then go t.root;
  List.rev !acc

(* --- whole-tree helpers ------------------------------------------------------ *)

let stats t = Split_key.stats ~decode t.store t.root
let prove_range t ~lo ~hi = Split_key.prove_range ~decode t.store t.root ~lo ~hi
let verify_range_proof ~root proof = Split_key.verify_range_proof ~decode ~root proof

(* --- generic ------------------------------------------------------------------------ *)

(* The probe prefix follows the instance name, so a Prolly-configured tree
   reports as [prolly.<op>]. *)
let rec generic_named ?pool name t =
  let view = generic_named ?pool name in
  Generic.make ~name ~store:t.store ~root:t.root ~decode ~get:(get t.store)
    ~walk:Split_key.walk
    ~order:(Ordered (Split_key.scan ~fetch:(get t.store) t.root))
    ~batch:(fun ops -> view (batch t ops))
    ~bulk_load:(fun entries -> view (of_sorted ?pool t.store t.cfg entries))
    ~diff:(Split_key.diff ~decode t.store t.root)
    ~reopen:(fun r -> view { t with root = r })

let generic ?pool t = generic_named ?pool "pos-tree" t
