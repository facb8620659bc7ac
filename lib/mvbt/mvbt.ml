open Siri_crypto
open Siri_core
module Store = Siri_store.Store
module Wire = Siri_codec.Wire

type config = { leaf_capacity : int; internal_capacity : int }

let config ?(leaf_capacity = 4) ?(internal_capacity = 25) () =
  if leaf_capacity < 2 || internal_capacity < 2 then
    invalid_arg "Mvbt.config: capacities must be >= 2";
  { leaf_capacity; internal_capacity }

type t = { store : Store.t; cfg : config; root : Hash.t }

let empty store cfg = { store; cfg; root = Hash.null }
let of_root store cfg root = { store; cfg; root }
let root t = t.root
let store t = t.store
let conf t = t.cfg

(* --- codec (same layout as POS-Tree nodes, without the salt) -------------- *)

let tag_leaf = 0
let tag_internal = 1

type node = Split_key.node =
  | Leaf of (Kv.key * Kv.value) array
  | Internal of int * (Kv.key * Hash.t) array

let encode node =
  let w = Wire.Writer.create ~capacity:1024 () in
  (match node with
  | Leaf entries ->
      Wire.Writer.u8 w tag_leaf;
      Wire.Writer.varint w (Array.length entries);
      Array.iter
        (fun (k, v) ->
          Wire.Writer.str w k;
          Wire.Writer.str w v)
        entries
  | Internal (level, refs) ->
      Wire.Writer.u8 w tag_internal;
      Wire.Writer.u8 w level;
      Wire.Writer.varint w (Array.length refs);
      Array.iter
        (fun (k, h) ->
          Wire.Writer.str w k;
          Wire.Writer.hash w h)
        refs);
  Wire.Writer.contents w

let decode bytes =
  let r = Wire.Reader.of_string bytes in
  if Wire.Reader.u8 r = tag_leaf then
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

let put store node =
  let children =
    match node with
    | Leaf _ -> []
    | Internal (_, refs) -> Array.to_list (Array.map snd refs)
  in
  Store.put store ~children (encode node)

(* Decoded arrays are never mutated ([entry_insert]/[array_replace] copy
   before writing), so a shared decoding is safe. *)
module Nodes = Store.Decoded (struct
  type nonrec node = node

  let decode = decode
end)

let get = Nodes.get

let max_key = function
  | Leaf entries -> fst entries.(Array.length entries - 1)
  | Internal (_, refs) -> fst refs.(Array.length refs - 1)

let height t =
  if Hash.is_null t.root then 0
  else
    match get t.store t.root with
    | Leaf _ -> 1
    | Internal (lvl, _) -> lvl + 1

(* --- insert ------------------------------------------------------------------ *)

(* Insert into a sorted entry array. *)
let entry_insert entries key value =
  let n = Array.length entries in
  let pos = ref n in
  (try
     for i = 0 to n - 1 do
       let c = String.compare key (fst entries.(i)) in
       if c = 0 then begin
         pos := -i - 1;
         raise Exit
       end
       else if c < 0 then begin
         pos := i;
         raise Exit
       end
     done
   with Exit -> ());
  if !pos < 0 then begin
    let entries = Array.copy entries in
    entries.(- !pos - 1) <- (key, value);
    entries
  end
  else begin
    let out = Array.make (n + 1) (key, value) in
    Array.blit entries 0 out 0 !pos;
    Array.blit entries !pos out (!pos + 1) (n - !pos);
    out
  end

let array_replace arr i x =
  let arr = Array.copy arr in
  arr.(i) <- x;
  arr

(* Replace slot [i] of [refs] by one or two refs. *)
let splice refs i replacement =
  match replacement with
  | [ r ] -> array_replace refs i r
  | [ r1; r2 ] ->
      let n = Array.length refs in
      let out = Array.make (n + 1) r1 in
      Array.blit refs 0 out 0 i;
      out.(i) <- r1;
      out.(i + 1) <- r2;
      Array.blit refs (i + 1) out (i + 2) (n - i - 1);
      out
  | _ -> assert false

let split_if_needed store cap mk arr =
  let n = Array.length arr in
  if n <= cap then
    let node = mk arr in
    [ (max_key node, put store node) ]
  else begin
    let mid = n / 2 in
    let left = mk (Array.sub arr 0 mid) in
    let right = mk (Array.sub arr mid (n - mid)) in
    [ (max_key left, put store left); (max_key right, put store right) ]
  end

(* Returns 1 or 2 replacement refs for the subtree rooted at [h]. *)
let rec ins store cfg h key value =
  match get store h with
  | Leaf entries ->
      let entries = entry_insert entries key value in
      split_if_needed store cfg.leaf_capacity (fun a -> Leaf a) entries
  | Internal (lvl, refs) ->
      let i = min (Split_key.child_for refs key) (Array.length refs - 1) in
      let replacement = ins store cfg (snd refs.(i)) key value in
      let refs = splice refs i replacement in
      split_if_needed store cfg.internal_capacity
        (fun a -> Internal (lvl, a))
        refs

let insert t key value =
  if Hash.is_null t.root then
    { t with root = put t.store (Leaf [| (key, value) |]) }
  else
    match ins t.store t.cfg t.root key value with
    | [ (_, h) ] -> { t with root = h }
    | two ->
        let lvl =
          match get t.store (snd (List.hd two)) with
          | Leaf _ -> 1
          | Internal (l, _) -> l + 1
        in
        { t with root = put t.store (Internal (lvl, Array.of_list two)) }

(* --- remove ------------------------------------------------------------------- *)

let entry_remove entries key =
  let n = Array.length entries in
  match Array.find_index (fun (k, _) -> String.equal k key) entries with
  | None -> None
  | Some i ->
      let out = Array.make (n - 1) ("", "") in
      Array.blit entries 0 out 0 i;
      Array.blit entries (i + 1) out i (n - 1 - i);
      Some out

(* Returns the replacement ref, or None if the subtree became empty, or
   raises Not_found if the key is absent (no copy needed). *)
let rec del store h key =
  match get store h with
  | Leaf entries -> (
      match entry_remove entries key with
      | None -> raise Not_found
      | Some [||] -> None
      | Some entries ->
          let node = Leaf entries in
          Some (max_key node, put store node))
  | Internal (lvl, refs) -> (
      let i = Split_key.child_for refs key in
      if i >= Array.length refs then raise Not_found
      else
        match del store (snd refs.(i)) key with
        | Some r ->
            let refs = array_replace refs i r in
            let node = Internal (lvl, refs) in
            Some (max_key node, put store node)
        | None ->
            let n = Array.length refs in
            if n = 1 then None
            else begin
              let refs' = Array.make (n - 1) refs.(0) in
              Array.blit refs 0 refs' 0 i;
              Array.blit refs (i + 1) refs' i (n - 1 - i);
              let node = Internal (lvl, refs') in
              Some (max_key node, put store node)
            end)

(* Drop single-child internal chains at the root after deletions. *)
let rec collapse store h =
  match get store h with
  | Internal (_, [| (_, only) |]) -> collapse store only
  | _ -> h

let remove t key =
  if Hash.is_null t.root then t
  else
    match del t.store t.root key with
    | exception Not_found -> t
    | None -> { t with root = Hash.null }
    | Some (_, h) -> { t with root = collapse t.store h }

let batch t ops =
  List.fold_left
    (fun t op ->
      match op with
      | Kv.Put (k, v) -> insert t k v
      | Kv.Del k -> remove t k)
    t ops

let of_entries store cfg entries =
  batch (empty store cfg) (List.map (fun (k, v) -> Kv.Put (k, v)) entries)

(* --- parallel bulk load ----------------------------------------------------- *)

module Pool = Siri_parallel.Pool

(* Cut the [n] items into ceil(n/cap) [lo, hi) segments whose sizes
   differ by at most one.  This is the canonical bulk shape: it depends
   only on [n] and [cap], never on how work is distributed over domains. *)
let balanced_segments cap items =
  let n = Array.length items in
  let parts = (n + cap - 1) / cap in
  let base = n / parts and extra = n mod parts in
  Array.init parts (fun i ->
      let lo = (i * base) + min i extra in
      (lo, lo + base + if i < extra then 1 else 0))

let of_sorted ?(pool = Pool.sequential) store cfg entries =
  match Kv.sort_entries entries with
  | [] -> empty store cfg
  | entries ->
      { store;
        cfg;
        root =
          Split_key.bulk_build ~pool store
            ~cut_leaves:(balanced_segments cfg.leaf_capacity)
            ~cut_refs:(balanced_segments cfg.internal_capacity)
            ~encode_leaf:(fun a -> encode (Leaf a))
            ~encode_internal:(fun lvl a -> encode (Internal (lvl, a)))
            (Array.of_list entries) }

(* --- whole-tree helpers ------------------------------------------------------ *)

let stats t = Split_key.stats ~decode t.store t.root
let prove_range t ~lo ~hi = Split_key.prove_range ~decode t.store t.root ~lo ~hi
let verify_range_proof ~root proof = Split_key.verify_range_proof ~decode ~root proof

(* --- generic ------------------------------------------------------------------------ *)

let rec generic ?pool t =
  let view = generic ?pool in
  Generic.make ~name:"mvmb+-tree" ~store:t.store ~root:t.root ~decode
    ~get:(get t.store) ~walk:Split_key.walk
    ~order:(Ordered (Split_key.scan ~fetch:(get t.store) t.root))
    ~batch:(fun ops -> view (batch t ops))
    ~bulk_load:(fun entries -> view (of_sorted ?pool t.store t.cfg entries))
    ~diff:(Split_key.diff ~decode t.store t.root)
    ~reopen:(fun r -> view { t with root = r })
