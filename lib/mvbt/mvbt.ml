open Siri_crypto
open Siri_core
module Store = Siri_store.Store

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

(* --- nodes (the split-key layout without the salt) ----------------------- *)

(* Nodes are read as unsalted {!Split_key.view}s and written by the shared
   exact-size writer.  The in-place write paths below edit materialized
   entry and ref arrays, copied out of a view, so the views
   [Store.Decoded] shares are never mutated. *)
let decode = Split_key.parse ~salted:false

module Nodes = Store.Decoded (struct
  type node = Split_key.view

  let decode = decode
end)

let get = Nodes.get

let put_leaf store entries = Store.put store (Split_key.write_leaf ~salt:None entries)

let put_internal store lvl refs =
  let bytes, child_offsets = Split_key.write_internal ~salt:None lvl refs in
  Store.put store ~child_offsets bytes

let height t = if Hash.is_null t.root then 0 else Split_key.level (get t.store t.root) + 1

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

(* The ref of a node of sorted items: its last key, and [put]'s hash. *)
let ref_of put arr = (fst arr.(Array.length arr - 1), put arr)

let split_if_needed cap put arr =
  let n = Array.length arr in
  if n <= cap then [ ref_of put arr ]
  else begin
    let mid = n / 2 in
    [ ref_of put (Array.sub arr 0 mid); ref_of put (Array.sub arr mid (n - mid)) ]
  end

(* Returns 1 or 2 replacement refs for the subtree rooted at [h]. *)
let rec ins store cfg h key value =
  let v = get store h in
  if Split_key.is_leaf v then
    let entries = entry_insert (Split_key.entries v) key value in
    split_if_needed cfg.leaf_capacity (put_leaf store) entries
  else begin
    let i = min (Split_key.child_for v key) (Split_key.count v - 1) in
    let replacement = ins store cfg (Split_key.child v i) key value in
    let refs = splice (Split_key.refs v) i replacement in
    split_if_needed cfg.internal_capacity
      (put_internal store (Split_key.level v))
      refs
  end

let insert t key value =
  if Hash.is_null t.root then
    { t with root = put_leaf t.store [| (key, value) |] }
  else
    match ins t.store t.cfg t.root key value with
    | [ (_, h) ] -> { t with root = h }
    | two ->
        let lvl = Split_key.level (get t.store (snd (List.hd two))) + 1 in
        { t with root = put_internal t.store lvl (Array.of_list two) }

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
  let v = get store h in
  if Split_key.is_leaf v then
    match entry_remove (Split_key.entries v) key with
    | None -> raise Not_found
    | Some [||] -> None
    | Some entries -> Some (ref_of (put_leaf store) entries)
  else begin
    let put = put_internal store (Split_key.level v) in
    let i = Split_key.child_for v key in
    if i >= Split_key.count v then raise Not_found
    else
      match del store (Split_key.child v i) key with
      | Some r -> Some (ref_of put (array_replace (Split_key.refs v) i r))
      | None ->
          let refs = Split_key.refs v in
          let n = Array.length refs in
          if n = 1 then None
          else begin
            let refs' = Array.make (n - 1) refs.(0) in
            Array.blit refs 0 refs' 0 i;
            Array.blit refs (i + 1) refs' i (n - 1 - i);
            Some (ref_of put refs')
          end
  end

(* Drop single-child internal chains at the root after deletions. *)
let rec collapse store h =
  let v = get store h in
  if (not (Split_key.is_leaf v)) && Split_key.count v = 1 then
    collapse store (Split_key.child v 0)
  else h

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
          Split_key.bulk_build ~pool store ~salt:None
            ~cut_leaves:(balanced_segments cfg.leaf_capacity)
            ~cut_refs:(balanced_segments cfg.internal_capacity)
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
