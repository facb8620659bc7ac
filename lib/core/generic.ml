open Siri_crypto
module Store = Siri_store.Store
module Node_cache = Siri_readpath.Node_cache
module Telemetry = Siri_telemetry.Telemetry

exception Unsupported of string

type t = {
  name : string;
  store : Store.t;
  root : Hash.t;
  lookup : Kv.key -> Kv.value option;
  get_many : Kv.key list -> (Kv.key * Kv.value option) list;
  path_length : Kv.key -> int;
  batch : Kv.op list -> t;
  bulk_load : (Kv.key * Kv.value) list -> t;
  to_list : unit -> (Kv.key * Kv.value) list;
  cardinal : unit -> int;
  diff : Hash.t -> Kv.diff_entry list;
  merge : Kv.merge_policy -> Hash.t -> (t, Kv.conflict list) result;
  prove : Kv.key -> Proof.t;
  verify : root:Hash.t -> Proof.t -> bool;
  prove_many : Kv.key list -> Multiproof.t;
  verify_many : root:Hash.t -> Multiproof.t -> bool;
  reopen : Hash.t -> t;
  range : lo:Kv.key option -> hi:Kv.key option -> (Kv.key * Kv.value) list;
  scan : lo:Kv.key option -> hi:Kv.key option -> (Kv.key * Kv.value) Seq.t;
}

(* --- the one constructor ------------------------------------------------------

   Each kind contributes one batched point walk and, when it has a key
   order, one scan; every other read is derived here.  The walk is run with
   three node fetches: the cache-aware [get] for lookups, a recording fetch
   for proving and a replaying fetch for verifying, so the proof a verifier
   checks is by construction the path a lookup reads. *)

type 'node walk =
  fetch:(Hash.t -> 'node) ->
  Hash.t ->
  Kv.key array ->
  (Kv.key -> Kv.value -> unit) ->
  unit

type order =
  | Ordered of
      (lo:Kv.key option -> hi:Kv.key option -> (Kv.key * Kv.value) Seq.t)
  | Unordered of ((Kv.key -> Kv.value -> unit) -> unit)

let make ~name ~store ~root ~decode ~get ~(walk : _ walk) ~order ~batch
    ~bulk_load ~diff ~reopen =
  let probe op f = Telemetry.probe (Store.sink store) op f in
  let p_lookup = name ^ ".lookup"
  and p_get_many = name ^ ".get_many"
  and p_batch = name ^ ".batch"
  and p_bulk = name ^ ".bulk_load"
  and p_diff = name ^ ".diff"
  and p_prove = name ^ ".prove"
  and p_prove_many = name ^ ".prove_many" in
  let empty = Hash.is_null root in
  let lookup k =
    let hit = ref None in
    if not empty then walk ~fetch:get root [| k |] (fun _ v -> hit := Some v);
    !hit
  in
  let path_length k =
    let visited = ref 0 in
    if not empty then
      walk
        ~fetch:(fun h ->
          incr visited;
          get h)
        root [| k |] (fun _ _ -> ());
    !visited
  in
  let get_many keys =
    if keys = [] then []
    else begin
      let found = Hashtbl.create (List.length keys) in
      if not empty then
        walk ~fetch:get root
          (Array.of_list (List.sort_uniq String.compare keys))
          (Hashtbl.replace found);
      List.map (fun k -> (k, Hashtbl.find_opt found k)) keys
    end
  in
  let prove_many keys =
    let keys = List.sort_uniq String.compare keys in
    if keys = [] || empty then
      { Multiproof.claims = List.map (fun k -> (k, None)) keys; nodes = [] }
    else begin
      let fetch_bytes, recorded = Multiproof.recorder ~get:(Store.get store) in
      let found = Hashtbl.create (List.length keys) in
      walk
        ~fetch:(fun h -> decode (fetch_bytes h))
        root (Array.of_list keys) (Hashtbl.replace found);
      { Multiproof.claims = List.map (fun k -> (k, Hashtbl.find_opt found k)) keys;
        nodes = recorded () }
    end
  in
  (* Store-independent: replays the proving walk over the supplied nodes,
     each re-hashed against the reference the walk asks for; any refusal
     (wrong hash, exhausted list, undecodable bytes) is an exception. *)
  let verify_many ~root (mp : Multiproof.t) =
    if not (Multiproof.well_formed mp) then false
    else if Hash.is_null root then
      mp.nodes = [] && List.for_all (fun (_, v) -> v = None) mp.claims
    else if mp.claims = [] then mp.nodes = []
    else begin
      let fetch_bytes, finished = Multiproof.consumer mp.nodes in
      let found = Hashtbl.create (List.length mp.claims) in
      match
        walk
          ~fetch:(fun h -> decode (fetch_bytes h))
          root
          (Array.of_list (Multiproof.keys mp))
          (Hashtbl.replace found)
      with
      | () ->
          finished ()
          && List.for_all
               (fun (k, claimed) -> Hashtbl.find_opt found k = claimed)
               mp.claims
      | exception _ -> false
    end
  in
  let prove key =
    let mp = prove_many [ key ] in
    { Proof.key; value = snd (List.hd mp.claims); nodes = mp.nodes }
  in
  let verify ~root (p : Proof.t) =
    verify_many ~root { Multiproof.claims = [ (p.key, p.value) ]; nodes = p.nodes }
  in
  (* The union of Section 4.1.4: every record the other version adds or
     changes becomes a put, applied in diff order by one batch.  Records
     only this version holds stay as they are. *)
  let merge policy other =
    let conflicts = ref [] in
    let ops =
      List.filter_map
        (fun { Kv.key; left; right } ->
          match (left, right) with
          | _, None -> None
          | None, Some rv -> Some (Kv.Put (key, rv))
          | Some lv, Some rv -> (
              match Kv.merge_values policy key lv rv with
              | Ok v -> if String.equal v lv then None else Some (Kv.Put (key, v))
              | Error c ->
                  conflicts := c :: !conflicts;
                  None))
        (diff other)
    in
    match !conflicts with [] -> Ok (batch ops) | cs -> Error (List.rev cs)
  in
  let scan, range, to_list, cardinal =
    match order with
    | Ordered scan ->
        (* An inclusive [hi] is the half-open bound just above it. *)
        let range ~lo ~hi =
          List.of_seq (scan ~lo ~hi:(Option.map (fun h -> h ^ "\000") hi))
        in
        ( scan,
          range,
          (fun () -> List.of_seq (scan ~lo:None ~hi:None)),
          fun () -> Seq.length (scan ~lo:None ~hi:None) )
    | Unordered iter ->
        let to_list () =
          let acc = ref [] in
          iter (fun k v -> acc := (k, v) :: !acc);
          List.sort (fun (a, _) (b, _) -> String.compare a b) !acc
        in
        (* No key order to prune by: a range is a filtered full read, and a
           streaming scan is refused. *)
        let range ~lo ~hi =
          List.filter
            (fun (k, _) ->
              (match lo with None -> true | Some l -> String.compare k l >= 0)
              && match hi with None -> true | Some h -> String.compare k h <= 0)
            (to_list ())
        in
        ( (fun ~lo:_ ~hi:_ -> raise (Unsupported name)),
          range,
          to_list,
          fun () ->
            let n = ref 0 in
            iter (fun _ _ -> incr n);
            !n )
  in
  { name;
    store;
    root;
    lookup = (fun k -> probe p_lookup (fun () -> lookup k));
    get_many = (fun ks -> probe p_get_many (fun () -> get_many ks));
    path_length;
    batch = (fun ops -> probe p_batch (fun () -> batch ops));
    bulk_load = (fun entries -> probe p_bulk (fun () -> bulk_load entries));
    to_list;
    cardinal;
    diff = (fun other -> probe p_diff (fun () -> diff other));
    merge;
    prove = (fun k -> probe p_prove (fun () -> prove k));
    verify;
    prove_many = (fun ks -> probe p_prove_many (fun () -> prove_many ks));
    verify_many;
    reopen;
    range;
    scan }

let insert t k v = t.batch [ Kv.Put (k, v) ]
let remove t k = t.batch [ Kv.Del k ]
let of_entries t entries = t.batch (List.map (fun (k, v) -> Kv.Put (k, v)) entries)

(* --- tiered reads --------------------------------------------------------------

   [get] is the read front door: it classifies each walk's latency by
   whether the decoded-node cache served it ([read.lookup.hit]: the cache
   is on and saw no miss during the walk) or it had to decode
   ([read.lookup.miss]; with the cache off every walk decodes).  The raw
   [t.lookup] closure stays available for callers that want the untiered
   path. *)

let get t k =
  let sink = Store.sink t.store in
  if not (Telemetry.enabled sink) then t.lookup k
  else begin
    let cache = Store.cache t.store in
    let misses_before = Node_cache.misses cache in
    let start = Telemetry.now sink in
    let r = t.lookup k in
    let stop = Telemetry.now sink in
    let tier =
      if Node_cache.enabled cache && Node_cache.misses cache = misses_before
      then "read.lookup.hit"
      else "read.lookup.miss"
    in
    Telemetry.incr sink tier;
    Telemetry.observe sink tier (stop -. start);
    r
  end

(* --- ordered streaming reads ------------------------------------------------

   [scan] is the ordered-read front door: a lazy key-ordered stream over
   the half-open interval [lo, hi).  Laziness is the whole point — the
   shard router concatenates / k-way-merges these without forcing them,
   and the server streams bounded chunks off one.  [range_count] drains
   (up to [limit]) without building the list. *)

let scan ?lo ?hi t =
  Telemetry.incr (Store.sink t.store) (t.name ^ ".scan");
  t.scan ~lo ~hi

let range_count ?lo ?hi ?limit t =
  let seq = scan ?lo ?hi t in
  let rec count n seq =
    match limit with
    | Some l when n >= l -> n
    | _ -> ( match seq () with Seq.Nil -> n | Seq.Cons (_, tl) -> count (n + 1) tl)
  in
  count 0 seq

(* --- cached multiproof serving ----------------------------------------------

   [prove_many] is the proof-serving front door: identical requests (same
   version root, same key set) return the memoized multiproof from the
   store's proof cache instead of re-walking the tree and re-reading every
   path node.  Multiproofs are immutable values over immutable versions,
   so the only coherence hazard is the store mutating bytes under a hash —
   the same tamper/gc primitives that invalidate the decoded-node cache
   clear the proof cache too. *)

module Proof_cache = Siri_readpath.Proof_cache

type Proof_cache.repr += Cached_multiproof of Multiproof.t

let prove_many t keys =
  let keys = List.sort_uniq String.compare keys in
  let pc = Store.proof_cache t.store in
  if not (Proof_cache.enabled pc) then t.prove_many keys
  else begin
    let ck = Proof_cache.cache_key ~root:t.root keys in
    match Proof_cache.find pc ck with
    | Some (Cached_multiproof mp) -> mp
    | _ ->
        let mp = t.prove_many keys in
        Proof_cache.insert pc ck ~cost:(Multiproof.size_bytes mp)
          (Cached_multiproof mp);
        mp
  end

let verify_many t ~root mp = t.verify_many ~root mp

let page_set t = Store.reachable t.store t.root
let node_count t = Hash.Set.cardinal (page_set t)
let total_bytes t = Store.bytes_of_set t.store (page_set t)
