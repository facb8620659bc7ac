open Siri_crypto
open Siri_core
module Store = Siri_store.Store
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

(* --- node views -------------------------------------------------------------- *)

(* A node is read as a {!Split_key.view} of the salted layout: its bytes
   and an offset table.  Views are immutable, so the one parse
   [Store.Decoded] caches is shared by every reader and by the rebuilder,
   which splices untouched items straight out of it.  The salt skipped by
   the parser is irrelevant to reads. *)
let decode = Split_key.parse ~salted:true

module Nodes = Store.Decoded (struct
  type node = Split_key.view

  let decode = decode
end)

let get = Nodes.get

(* --- streaming rebuilder -------------------------------------------------- *)

(* Stream 0 carries records; stream l>=1 carries refs to height-(l-1) nodes.
   Chunk boundaries are decided as items arrive; a finished chunk becomes a
   node whose ref is pushed onto the stream above.  Reusing a clean subtree
   of height l is legal exactly when streams 0..l are at a boundary (all
   pendings empty, rolling states reset).

   An item carried over unchanged from the old tree is a [Raw] slice of the
   old node's view: its bytes are fed to the rolling hash in place and
   blitted into the new node, never decoded and re-encoded.  Such an item
   may be [known] not to carry the rolling-hash pattern (see [merge_leaf]
   and [emit]); with [min_size = 0] it is then only counted by
   [Chunker.skip], not hashed, and the cuts come out exactly as a full feed
   would place them. *)

type item = Split_key.item =
  | Ent of Kv.key * Kv.value
  | Ref of Kv.key * Hash.t
  | Raw of Split_key.view * int

type cut =
  | Rolling of { chunker : Chunker.t; skippable : bool }
      (* stream 0, or internal By_rolling; [skippable] iff [min_size = 0] *)
  | Child_hash of { pattern : Chunker.config; min_items : int; max_items : int }

type stream = {
  cut : cut;
  mutable pending : item list;  (* reversed *)
  mutable pending_count : int;
  mutable pending_size : int;  (* bytes of the pending items *)
  mutable pending_raw : int;  (* of which spliced from old nodes *)
  mutable total : int;
}

type rebuilder = {
  rstore : Store.t;
  rstage : child_offsets:int array -> string -> Hash.t;
      (* the node install of [Store.put_deferred]: digest now, put when
         the rebuild returns *)
  rcfg : config;
  rsalt : string;
  mutable streams : stream array;
  mutable fed : int;  (* items hashed by [Chunker.feed] *)
  mutable skipped : int;  (* items counted by [Chunker.skip] *)
  mutable spliced : int;  (* node bytes blitted from old nodes *)
}

let new_stream cfg lvl =
  let rolling c =
    Rolling { chunker = Chunker.create c; skippable = c.Chunker.min_size = 0 }
  in
  let cut =
    if lvl = 0 then rolling cfg.leaf
    else
      match cfg.internal with
      | By_rolling c -> rolling c
      | By_child_hash { bits; min_items; max_items } ->
          Child_hash
            { pattern = Chunker.config ~pattern_bits:bits (); min_items; max_items }
  in
  { cut; pending = []; pending_count = 0; pending_size = 0; pending_raw = 0; total = 0 }

let rebuilder store stage cfg salt =
  { rstore = store; rstage = stage; rcfg = cfg; rsalt = salt; streams = [||];
    fed = 0; skipped = 0; spliced = 0 }

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

(* The node holding [s]'s pending items, written in one exact-size buffer
   from the reversed pending list; returns the ref to it. *)
let make_node r lvl s =
  let last_key =
    match s.pending with item :: _ -> Split_key.item_key item | [] -> assert false
  in
  let bytes, child_offsets =
    Split_key.write_rev ~salt:(Some r.rsalt) ~level:lvl ~count:s.pending_count
      ~size:s.pending_size s.pending
  in
  r.spliced <- r.spliced + s.pending_raw;
  let h = r.rstage ~child_offsets bytes in
  Ref (last_key, h)

(* The [By_child_hash] rule, reading a spliced ref's hash in place. *)
let child_boundary pattern = function
  | Raw (v, i) ->
      Chunker.hash_boundary_sub pattern (Split_key.bytes v)
        ~off:(Split_key.child_off v i)
  | item -> Chunker.hash_boundary pattern (Split_key.item_child item)

let rec add_item r lvl item ~known =
  let s = stream r lvl in
  let size = Split_key.item_size item in
  s.pending <- item :: s.pending;
  s.pending_count <- s.pending_count + 1;
  s.pending_size <- s.pending_size + size;
  (match item with Raw _ -> s.pending_raw <- s.pending_raw + size | _ -> ());
  s.total <- s.total + 1;
  let boundary =
    match (s.cut, item) with
    | Rolling { chunker; skippable }, _ ->
        let fired =
          if known && skippable then begin
            r.skipped <- r.skipped + 1;
            Chunker.skip chunker size
          end
          else begin
            r.fed <- r.fed + 1;
            match item with
            | Raw (v, i) ->
                Chunker.feed_sub chunker (Split_key.bytes v)
                  ~off:(Split_key.item_start v i) ~len:size
            | Ent _ | Ref _ -> Chunker.feed chunker (Split_key.ser_item item)
          end
        in
        (* Never cut a single-ref chunk: a chain of one-child internal
           nodes would grow the tree height unboundedly. *)
        fired && (lvl = 0 || s.pending_count >= 2)
    | Child_hash { pattern; min_items; max_items }, (Ref _ | Raw _) ->
        s.pending_count >= max_items
        || (s.pending_count >= min_items && child_boundary pattern item)
    | Child_hash _, Ent _ -> assert false
  in
  if boundary then flush_stream r lvl

and flush_stream r lvl =
  let s = stream r lvl in
  if s.pending_count > 0 then begin
    let rf = make_node r lvl s in
    s.pending <- [];
    s.pending_count <- 0;
    s.pending_size <- 0;
    s.pending_raw <- 0;
    (match s.cut with
    | Rolling { chunker; _ } -> Chunker.reset chunker
    | Child_hash _ -> ());
    add_item r (lvl + 1) rf ~known:false
  end

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
      | [ ((Ref _ | Raw _) as only) ] -> Split_key.item_child only
      | _ -> assert false
    else begin
      flush_stream r lvl;
      if s.total = 0 && not (above_active lvl) then Hash.null else loop (lvl + 1)
    end
  in
  loop 0

(* --- batch update ---------------------------------------------------------- *)

(* Split sorted ops among an internal view's children: child i takes ops
   with key <= its split key; the last child also takes everything beyond
   the largest split key.  Keys are compared in place. *)
let partition_ops v ops =
  let n = Split_key.count v in
  let buckets = Array.make n [] in
  let rec go i ops =
    match ops with
    | [] -> ()
    | op :: rest ->
        let key = Kv.key_of_op op in
        let rec advance i =
          if i >= n - 1 then n - 1
          else if Split_key.compare_key key v i <= 0 then i
          else advance (i + 1)
        in
        let i = advance i in
        buckets.(i) <- op :: buckets.(i);
        go i rest
  in
  go 0 ops;
  Array.map List.rev buckets

(* Stream a leaf's records, merged with its sorted ops ([Kv.apply_sorted]'s
   semantics), into stream 0.  An untouched record is spliced from the
   leaf's view; one other than the leaf's last is known not to fire: it
   did not end the old chunk, so its own bytes carry no pattern. *)
let merge_leaf r v ops =
  let n = Split_key.count v in
  let put = function
    | Kv.Put (k, x) -> add_item r 0 (Ent (k, x)) ~known:false
    | Kv.Del _ -> ()
  in
  let rec go i ops =
    if i = n then List.iter put ops
    else
      match ops with
      | op :: rest ->
          let c = Split_key.compare_key (Kv.key_of_op op) v i in
          if c <= 0 then begin
            put op;
            go (if c = 0 then i + 1 else i) rest
          end
          else keep i ops
      | [] -> keep i ops
  and keep i ops =
    add_item r 0 (Raw (v, i)) ~known:(i < n - 1);
    go (i + 1) ops
  in
  go 0 ops

(* The old version's nodes are read with [get_own]: the internal ones
   are usually in the writer cache, put by the commit that made them. *)
let rec emit r h ops ~reuse =
  let v = Nodes.get_own r.rstore h in
  if Split_key.is_leaf v then begin
    merge_leaf r v ops;
    (* Local mode: contain the edit within this node's span — cut here
       instead of re-chunking into the following nodes. *)
    if r.rcfg.local_split then flush_stream r 0
  end
  else begin
    let lvl = Split_key.level v in
    let buckets = partition_ops v ops in
    let last = Split_key.count v - 1 in
    for i = 0 to last do
      if buckets.(i) = [] && reuse && can_reuse r (lvl - 1) then
        (* A reused ref is known not to fire strictly inside its old
           node: the last one ended it, and the first may have fired
           unheeded since a single-ref chunk is never cut. *)
        add_item r lvl (Raw (v, i)) ~known:(i > 0 && i < last)
      else emit r (Split_key.child v i) buckets.(i) ~reuse
    done
  end

let rebuild t ops salt ~reuse =
  let r, root =
    Store.put_deferred t.store (fun ~stage ->
        let r = rebuilder t.store stage t.cfg salt in
        if Hash.is_null t.root then merge_leaf r Split_key.empty_leaf ops
        else emit r t.root ops ~reuse;
        (r, finish r))
  in
  let sink = Store.sink t.store in
  Siri_telemetry.Telemetry.incr sink ~by:r.fed "chunk.fed";
  Siri_telemetry.Telemetry.incr sink ~by:r.skipped "chunk.skipped";
  Siri_telemetry.Telemetry.incr sink ~by:r.spliced "node.spliced_bytes";
  { t with root; salt }

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
      if Chunker.feed ch (Split_key.ser_item (Ent (k, v))) then begin
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
        (fun i rf ->
          let fired = Chunker.feed ch (Split_key.ser_item (Ref (fst rf, snd rf))) in
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
          Split_key.bulk_build ~pool store ~salt:(Some salt)
            ~cut_leaves:(leaf_segments cfg) ~cut_refs:(ref_segments cfg)
            (Array.of_list entries);
        salt }

(* --- queries ----------------------------------------------------------------- *)

let height t =
  if Hash.is_null t.root then 0 else Split_key.level (get t.store t.root) + 1

let leaf_sizes t =
  let acc = ref [] in
  let rec go h =
    let v = get t.store h in
    if Split_key.is_leaf v then acc := Store.size_of t.store h :: !acc
    else
      for i = 0 to Split_key.count v - 1 do
        go (Split_key.child v i)
      done
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
