open Siri_crypto
open Siri_core
module Store = Siri_store.Store
module Wire = Siri_codec.Wire

type config = { capacity : int; fanout : int }

let config ?(capacity = 1024) ?(fanout = 2) () =
  if capacity < 1 then invalid_arg "Mbt.config: capacity must be >= 1";
  if fanout < 2 then invalid_arg "Mbt.config: fanout must be >= 2";
  { capacity; fanout }

(* Node counts per level, leaves (buckets) first; the last level has one
   node, the root.  For capacity 1 the bucket itself is the root. *)
let level_counts cfg =
  let rec loop count acc =
    if count = 1 then List.rev (1 :: List.tl acc)
    else
      let next = (count + cfg.fanout - 1) / cfg.fanout in
      loop next (next :: acc)
  in
  Array.of_list (loop cfg.capacity [ cfg.capacity ])

type t = {
  store : Store.t;
  cfg : config;
  root : Hash.t;
  counts : int array;  (** cached level sizes *)
}

let root t = t.root
let store t = t.store
let conf t = t.cfg
let depth t = Array.length t.counts - 1

(* --- codec -------------------------------------------------------------- *)

let tag_bucket = 0
let tag_internal = 1

let encode_bucket entries =
  let w = Wire.Writer.create () in
  Wire.Writer.u8 w tag_bucket;
  Wire.Writer.varint w (Array.length entries);
  Array.iter
    (fun (k, v) ->
      Wire.Writer.str w k;
      Wire.Writer.str w v)
    entries;
  Wire.Writer.contents w

let encode_internal hashes =
  let w = Wire.Writer.create () in
  Wire.Writer.u8 w tag_internal;
  Wire.Writer.varint w (Array.length hashes);
  Array.iter (fun h -> Wire.Writer.hash w h) hashes;
  Wire.Writer.contents w

(* An internal node's children are packed one after another behind its
   tag and count. *)
let internal_offsets hashes =
  let n = Array.length hashes in
  let first = 1 + Wire.Writer.varint_size n in
  Array.init n (fun i -> first + (i * Hash.size))

type node = Bucket of (Kv.key * Kv.value) array | Internal of Hash.t array

let decode bytes =
  let r = Wire.Reader.of_string bytes in
  let tag = Wire.Reader.u8 r in
  if tag = tag_bucket then begin
    let n = Wire.Reader.varint r in
    Bucket
      (Array.init n (fun _ ->
           let k = Wire.Reader.str r in
           let v = Wire.Reader.str r in
           (k, v)))
  end
  else
    Internal (Array.init (Wire.Reader.varint r) (fun _ -> Wire.Reader.hash r))

(* Decoded arrays are never mutated ([rewrite_path] copies child arrays
   before updating), so a shared decoding is safe. *)
module Nodes = Store.Decoded (struct
  type nonrec node = node

  let decode = decode
end)

let get = Nodes.get

let put_bucket store entries = Store.put store (encode_bucket entries)

let put_internal store hashes =
  Store.put store ~child_offsets:(internal_offsets hashes) (encode_internal hashes)

(* --- construction ------------------------------------------------------- *)

(* The bulk build and the level-wise batch encode and hash their nodes on
   a pool ([Pool.sequential] when none is given) and install them in index
   order, so the root, the put sequence and the metering totals do not
   depend on the pool's width.  Each meters as one parallel map. *)

module Pool = Siri_parallel.Pool

let one s = (s.Store.digest, [ s ])

(* One internal node per children array. *)
let put_internals pool store children =
  Store.put_parallel store ~map:(Pool.map pool)
    (fun cs ->
      one (Store.stage_quiet ~child_offsets:(internal_offsets cs) (encode_internal cs)))
    children

(* Build the internal levels over the given level-0 hashes, one level of
   children arrays at a time through [put_level]. *)
let build_up put_level cfg leaf_hashes =
  let rec loop hashes =
    let n = Array.length hashes in
    if n = 1 then hashes.(0)
    else
      loop
        (put_level
           (Array.init ((n + cfg.fanout - 1) / cfg.fanout) (fun i ->
                let lo = i * cfg.fanout in
                Array.sub hashes lo (min cfg.fanout (n - lo)))))
  in
  loop leaf_hashes

(* Built by plain puts, so an empty tree opens no parallel span. *)
let empty store cfg =
  let empty_bucket = put_bucket store [||] in
  let leaves = Array.make cfg.capacity empty_bucket in
  { store;
    cfg;
    root = build_up (Array.map (put_internal store)) cfg leaves;
    counts = level_counts cfg }

let of_root store cfg root = { store; cfg; root; counts = level_counts cfg }

(* --- lookup ------------------------------------------------------------- *)

(* Uniform bucket choice from the key's digest. *)
let bucket_of_hash cfg h =
  let v = ref 0 in
  for i = 0 to 6 do
    v := (!v lsl 8) lor Hash.byte h i
  done;
  !v mod cfg.capacity

let bucket_index cfg key = bucket_of_hash cfg (Hash.of_string key)

(* Hashes along the path root→bucket for bucket index [b]; returns the
   decoded bucket and the list of (internal node, child slot) pairs visited,
   root first. *)
let descend t b =
  let d = depth t in
  let rec go h level acc =
    match get t.store h with
    | Bucket entries ->
        assert (level = 0);
        (entries, List.rev acc)
    | Internal children ->
        (* index of the target node at [level - 1] is b / fanout^(level-1);
           the child slot within this node is that index mod fanout. *)
        let idx_below =
          let rec div v k = if k = 0 then v else div (v / t.cfg.fanout) (k - 1) in
          div b (level - 1)
        in
        let slot = idx_below mod t.cfg.fanout in
        go children.(slot) (level - 1) ((h, children, slot) :: acc)
  in
  go t.root d []

type bucket = (Kv.key * Kv.value) array

let load_bucket t key = fst (descend t (bucket_index t.cfg key))

let scan_bucket entries key =
  let rec bsearch lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let k, v = entries.(mid) in
      match String.compare key k with
      | 0 -> Some v
      | c when c < 0 -> bsearch lo mid
      | _ -> bsearch (mid + 1) hi
  in
  bsearch 0 (Array.length entries)

let bucket_size = Array.length

(* The batched point walk: the keys, tagged with their buckets and sorted
   by bucket, descend the tree once.  Below any node the buckets share
   their higher base-[fanout] digits, so the keys under each child slot
   form a contiguous run: each shared internal node (always including the
   root) is fetched once for the whole batch, and buckets are visited in
   ascending order. *)
let walk cfg depth ~fetch root keys on_hit =
  let items = Array.map (fun k -> (bucket_index cfg k, k)) keys in
  Array.stable_sort (fun (a, _) (b, _) -> Int.compare a b) items;
  (* [span] = fanout^(level-1): the buckets under one child slot. *)
  let slot span i = fst items.(i) / span mod cfg.fanout in
  let rec go h span lo hi =
    match fetch h with
    | Bucket entries ->
        for i = lo to hi - 1 do
          let k = snd items.(i) in
          match scan_bucket entries k with Some v -> on_hit k v | None -> ()
        done
    | Internal children ->
        let i = ref lo in
        while !i < hi do
          let s = slot span !i in
          let j = ref (!i + 1) in
          while !j < hi && slot span !j = s do incr j done;
          go children.(s) (span / cfg.fanout) !i !j;
          i := !j
        done
  in
  let rec pow k = if k <= 0 then 1 else cfg.fanout * pow (k - 1) in
  go root (pow (depth - 1)) 0 (Array.length items)

(* --- updates ------------------------------------------------------------ *)

(* Apply sorted ops to a sorted entry array. *)
let apply_ops entries ops =
  Array.of_list (Kv.apply_sorted (Array.to_list entries) ops)

(* Rewrite the path to bucket [b] so that the bucket holds [entries']. *)
let rewrite_path t b entries' =
  let _, path = descend t b in
  let new_leaf = put_bucket t.store entries' in
  let rec rebuild path child =
    match path with
    | [] -> child
    | (_, children, slot) :: above ->
        let children = Array.copy children in
        children.(slot) <- child;
        rebuild above (put_internal t.store children)
  in
  { t with root = rebuild (List.rev path) new_leaf }

(* Ops grouped by target bucket, ascending, each group op-sorted. *)
let group_by_bucket cfg ops =
  let by_bucket = Hashtbl.create 16 in
  List.iter
    (fun op ->
      let b = bucket_index cfg (Kv.key_of_op op) in
      Hashtbl.replace by_bucket b
        (op :: (try Hashtbl.find by_bucket b with Not_found -> [])))
    ops;
  Hashtbl.fold
    (fun b ops_rev acc -> (b, Kv.sort_ops (List.rev ops_rev)) :: acc)
    by_bucket []
  |> List.sort compare

let batch_seq t ops =
  (* Group ops by bucket; rewrite each touched path once. *)
  group_by_bucket t.cfg ops
  |> List.fold_left
       (fun t (b, ops) ->
         let entries, _ = descend t b in
         rewrite_path t b (apply_ops entries ops))
       t

(* Level-wise incremental commit: instead of rewriting the root→bucket
   path once per dirty bucket (re-hashing shared ancestors up to
   [fanout] times), rebuild each affected node exactly once per level,
   fanning the pure encode+hash work over the pool.  Node contents are
   determined by the final child set, so the resulting root is identical
   to the sequential fold's — with strictly fewer intermediate puts. *)
let batch_pool pool t ops =
  match group_by_bucket t.cfg ops with
  | [] -> t
  | groups ->
      let fanout = t.cfg.fanout in
      let d = depth t in
      let ancestor b l =
        let r = ref b in
        for _ = 1 to l do
          r := !r / fanout
        done;
        !r
      in
      let affected = Array.make (d + 1) [||] in
      affected.(0) <- Array.of_list (List.map fst groups);
      for l = 1 to d do
        affected.(l) <-
          Array.of_list
            (List.sort_uniq compare
               (Array.to_list (Array.map (fun b -> ancestor b l) affected.(0))))
      done;
      (* Top-down: current hash and children of every affected node. *)
      let children_at = Hashtbl.create 64 in
      let hash_at = Hashtbl.create 64 in
      Hashtbl.replace hash_at (d, 0) t.root;
      for l = d downto 1 do
        Array.iter
          (fun j ->
            match get t.store (Hashtbl.find hash_at (l, j)) with
            | Internal cs ->
                Hashtbl.replace children_at (l, j) cs;
                Array.iter
                  (fun c ->
                    if c / fanout = j then
                      Hashtbl.replace hash_at (l - 1, c) cs.(c mod fanout))
                  affected.(l - 1)
            | Bucket _ -> assert false)
          affected.(l)
      done;
      (* Dirty buckets: fetch on the coordinator, apply+encode+hash on the
         pool, install in bucket order. *)
      let leaf_inputs =
        Array.map
          (fun (b, bops) ->
            match get t.store (Hashtbl.find hash_at (0, b)) with
            | Bucket entries -> (b, entries, bops)
            | Internal _ -> assert false)
          (Array.of_list groups)
      in
      let new_leaves =
        Store.put_parallel t.store ~map:(Pool.map pool)
          (fun (_, entries, bops) ->
            one (Store.stage_quiet (encode_bucket (apply_ops entries bops))))
          leaf_inputs
      in
      let current = ref (Hashtbl.create 16) in
      Array.iteri
        (fun i (b, _, _) -> Hashtbl.replace !current b new_leaves.(i))
        leaf_inputs;
      for l = 1 to d do
        let parents = affected.(l) in
        let inputs =
          Array.map
            (fun j ->
              let cs = Array.copy (Hashtbl.find children_at (l, j)) in
              Hashtbl.iter
                (fun c h -> if c / fanout = j then cs.(c mod fanout) <- h)
                !current;
              cs)
            parents
        in
        let hashes = put_internals pool t.store inputs in
        let next = Hashtbl.create 16 in
        Array.iteri (fun i j -> Hashtbl.replace next j hashes.(i)) parents;
        current := next
      done;
      Store.count_parallel t.store ~tasks:(Array.length leaf_inputs)
        ~nodes:(Array.fold_left (fun acc a -> acc + Array.length a) 0 affected);
      { t with root = Hashtbl.find !current 0 }

let batch ?pool t ops =
  match pool with None -> batch_seq t ops | Some pool -> batch_pool pool t ops

let insert t key value = batch t [ Kv.Put (key, value) ]
let remove t key = batch t [ Kv.Del key ]

let sorted_bucket lst = Array.of_list (Kv.sort_entries lst)

(* Bulk build in three pool steps: key digests for the bucket assignment,
   one bucket node per bucket, then the internal levels. *)
let of_entries ?(pool = Pool.sequential) store cfg entries =
  let entries = Array.of_list entries in
  let assignment =
    Store.put_parallel store ~map:(Pool.map pool)
      (fun (k, _) -> (bucket_of_hash cfg (Hash.of_string_quiet k), []))
      entries
  in
  Array.iter (fun (k, _) -> Hash.note_digest (String.length k)) entries;
  (* Filled back to front, so each bucket lists its records in input order
     and a key given twice keeps its last value, as in [batch]. *)
  let buckets = Array.make cfg.capacity [] in
  for i = Array.length entries - 1 downto 0 do
    buckets.(assignment.(i)) <- entries.(i) :: buckets.(assignment.(i))
  done;
  let leaves =
    Store.put_parallel store ~map:(Pool.map pool)
      (fun lst -> one (Store.stage_quiet (encode_bucket (sorted_bucket lst))))
      buckets
  in
  Store.count_parallel store
    ~tasks:(Array.length entries + cfg.capacity)
    ~nodes:cfg.capacity;
  { store;
    cfg;
    root = build_up (put_internals pool store) cfg leaves;
    counts = level_counts cfg }

(* --- traversal ----------------------------------------------------------- *)

let iter t f =
  let rec go h =
    match get t.store h with
    | Bucket entries -> Array.iter (fun (k, v) -> f k v) entries
    | Internal children -> Array.iter go children
  in
  go t.root

(* --- diff ----------------------------------------------------------------- *)

let diff t1 t2 =
  if t1.cfg <> t2.cfg then
    invalid_arg "Mbt.diff: instances have different configurations";
  let rec go h1 h2 acc =
    if Hash.equal h1 h2 then acc
    else
      match (get t1.store h1, get t2.store h2) with
      | Bucket e1, Bucket e2 ->
          List.rev_append
            (Kv.diff_sorted (Array.to_list e1) (Array.to_list e2))
            acc
      | Internal c1, Internal c2 ->
          let acc = ref acc in
          for i = 0 to max (Array.length c1) (Array.length c2) - 1 do
            acc := go c1.(i) c2.(i) !acc
          done;
          !acc
      | _ -> invalid_arg "Mbt.diff: shape mismatch"
  in
  List.sort
    (fun (a : Kv.diff_entry) (b : Kv.diff_entry) ->
      String.compare a.key b.key)
    (go t1.root t2.root [])

(* --- generic ----------------------------------------------------------------- *)

(* MBT hashes keys into buckets: there is no key order to prune or stream
   by, so the instance is [Unordered] — ranges are filtered full reads and
   streaming scans are refused (the paper's Section 5 verdict, typed). *)
let rec generic ?pool t =
  let view = generic ?pool in
  Generic.make ~name:"mbt" ~store:t.store ~root:t.root ~decode
    ~get:(get t.store) ~walk:(walk t.cfg (depth t)) ~order:(Unordered (iter t))
    ~batch:(fun ops -> view (batch ?pool t ops))
    ~bulk_load:(fun entries -> view (of_entries ?pool t.store t.cfg entries))
    ~diff:(fun other -> diff t (of_root t.store t.cfg other))
    ~reopen:(fun r -> view (of_root t.store t.cfg r))
