open Siri_crypto
module Store = Siri_store.Store

type node =
  | Leaf of (Kv.key * Kv.value) array
  | Internal of int * (Kv.key * Hash.t) array

let child_for refs key =
  let rec bsearch lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if String.compare (fst refs.(mid)) key < 0 then bsearch (mid + 1) hi
      else bsearch lo mid
  in
  bsearch 0 (Array.length refs)

let find_entry entries key =
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

let walk ~fetch root keys on_hit =
  let rec go h lo hi =
    match fetch h with
    | Leaf entries ->
        for i = lo to hi - 1 do
          match find_entry entries keys.(i) with
          | Some v -> on_hit keys.(i) v
          | None -> ()
        done
    | Internal (_, refs) ->
        let n = Array.length refs in
        let i = ref lo in
        while !i < hi do
          let c = child_for refs keys.(!i) in
          if c = n then
            (* Beyond the last split key; so is every later key: this node
               witnesses their absence. *)
            i := hi
          else begin
            let split = fst refs.(c) in
            let j = ref (!i + 1) in
            while !j < hi && String.compare keys.(!j) split <= 0 do
              incr j
            done;
            go (snd refs.(c)) !i !j;
            i := !j
          end
        done
  in
  go root 0 (Array.length keys)

(* Child i covers (split_{i-1}, split_i], so it can intersect [lo, hi)
   only when split_i >= lo and split_{i-1} < hi.  Keys arrive in global
   order, so the first key >= hi terminates the whole stream — frames
   still on the stack cover strictly larger keys and are never fetched. *)
let scan ~fetch root ~lo ~hi =
  let below_lo k = match lo with None -> false | Some l -> String.compare k l < 0 in
  let at_or_above_hi k =
    match hi with None -> false | Some h -> String.compare k h >= 0
  in
  let rec step stack () =
    match stack with
    | [] -> Seq.Nil
    | `Leaf (entries, i) :: rest ->
        if i >= Array.length entries then step rest ()
        else
          let k, v = entries.(i) in
          if at_or_above_hi k then Seq.Nil
          else if below_lo k then step (`Leaf (entries, i + 1) :: rest) ()
          else Seq.Cons ((k, v), step (`Leaf (entries, i + 1) :: rest))
    | `Node h :: rest -> (
        match fetch h with
        | Leaf entries -> step (`Leaf (entries, 0) :: rest) ()
        | Internal (_, refs) ->
            let frames = ref rest in
            for i = Array.length refs - 1 downto 0 do
              let split, child = refs.(i) in
              let hit =
                (not (below_lo split))
                && (i = 0 || not (at_or_above_hi (fst refs.(i - 1))))
              in
              if hit then frames := `Node child :: !frames
            done;
            step !frames ())
  in
  if Hash.is_null root then Seq.empty else step [ `Node root ]

(* One pool step per level: each segment of the level's items becomes one
   node, staged on the workers and installed in segment order, and its ref
   carries the segment's last key up to the next level. *)
let bulk_build ~pool store ~cut_leaves ~cut_refs ~encode_leaf ~encode_internal
    entries =
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
             Store.stage_quiet
               ~children:(Array.to_list (Array.map snd slice))
               (encode_internal height slice)))
  in
  up 1
    (level entries (cut_leaves entries) (fun slice ->
         Store.stage_quiet (encode_leaf slice)))

(* The shape Tree_diff, Tree_stats and Range_proof work on, straight from
   a kind's node bytes. *)
let td_decode ~decode bytes =
  match decode bytes with
  | Leaf entries -> Tree_diff.Entries (Array.to_list entries)
  | Internal (lvl, refs) -> Tree_diff.Children (lvl, Array.to_list refs)

let diff ~decode store left right =
  Tree_diff.diff ~decode:(fun h -> td_decode ~decode (Store.get store h)) ~left ~right

let stats ~decode store root =
  Tree_stats.collect ~get:(Store.get store) ~decode:(td_decode ~decode) ~root

let prove_range ~decode store root ~lo ~hi =
  Range_proof.prove ~get:(Store.get store) ~decode:(td_decode ~decode) ~root ~lo ~hi

let verify_range_proof ~decode ~root proof =
  Range_proof.verify ~decode:(td_decode ~decode) ~root proof
