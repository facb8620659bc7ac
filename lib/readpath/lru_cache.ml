(* Hash table + intrusive recency ring: entries carry a value and a cost,
   and the capacity is a cost budget (an entry count when every cost is
   1).  Eviction pops from the ring tail until the budget is respected,
   so every operation stays O(1) amortized regardless of how lopsided the
   entry costs are.

   The ring is circular through a sentinel, so linking and unlinking are
   plain pointer writes: no [option] boxes are allocated on the hit path,
   which matters because a traversal touches the cache once per node and
   a hit must stay cheaper than fetching and re-decoding the node. *)

module Make (K : Hashtbl.HashedType) = struct
  module Tbl = Hashtbl.Make (K)

  type 'a entry = {
    key : K.t;
    mutable value : 'a;
    mutable entry_cost : int;
    mutable prev : 'a entry;
    mutable next : 'a entry;
  }

  type 'a t = {
    mutable budget : int;
    tbl : 'a entry Tbl.t;
    (* Sentinel of the recency ring: [sentinel.next] is most recent,
       [sentinel.prev] least recent; created lazily on the first insert
       because it needs a (dummy) key and value.  Its cost is 0 and it is
       never in [tbl], so it can never be found or evicted. *)
    mutable sentinel : 'a entry option;
    mutable held_cost : int;
    mutable evicted : int;
  }

  let create ~budget =
    if budget < 0 then invalid_arg "Lru_cache.create: budget must be non-negative";
    (* Entry count is unknowable from a cost budget; start small and let
       the table grow geometrically — no churn, since Hashtbl only ever
       doubles. *)
    { budget; tbl = Tbl.create 64; sentinel = None; held_cost = 0; evicted = 0 }

  let budget t = t.budget
  let size t = Tbl.length t.tbl
  let cost t = t.held_cost
  let evictions t = t.evicted
  let mem t k = Tbl.mem t.tbl k

  let unlink e =
    e.prev.next <- e.next;
    e.next.prev <- e.prev;
    e.prev <- e;
    e.next <- e

  let push_front s e =
    e.prev <- s;
    e.next <- s.next;
    s.next.prev <- e;
    s.next <- e

  let sentinel_for t k v =
    match t.sentinel with
    | Some s -> s
    | None ->
        (* The dummy key/value only anchor the ring; they are never
           consulted (cost 0, not in the table). *)
        let rec s =
          { key = k; value = v; entry_cost = 0; prev = s; next = s }
        in
        t.sentinel <- Some s;
        s

  let drop t e =
    unlink e;
    Tbl.remove t.tbl e.key;
    t.held_cost <- t.held_cost - e.entry_cost

  let evict_until_fits t =
    match t.sentinel with
    | None -> ()
    | Some s ->
        while t.held_cost > t.budget do
          let e = s.prev in
          if e == s then t.held_cost <- 0 (* unreachable: cost without entries *)
          else begin
            drop t e;
            t.evicted <- t.evicted + 1
          end
        done

  let find t k =
    match Tbl.find t.tbl k with
    | exception Not_found -> None
    | e ->
        (match t.sentinel with
        | Some s when s.next != e ->
            unlink e;
            push_front s e
        | _ -> () (* already most recent (or unreachable: no sentinel) *));
        Some e.value

  let insert t k ~cost v =
    if cost < 0 then invalid_arg "Lru_cache.insert: negative cost";
    match Tbl.find_opt t.tbl k with
    | Some e ->
        (* Replace in place; recency refreshes, cost may change. *)
        t.held_cost <- t.held_cost - e.entry_cost + cost;
        e.value <- v;
        e.entry_cost <- cost;
        let s = sentinel_for t k v in
        if s.next != e then begin
          unlink e;
          push_front s e
        end;
        if t.held_cost > t.budget then
          (* The refreshed entry sits at the front, so it survives unless
             it alone exceeds the budget — then the loop drains everything
             and finally drops it too. *)
          evict_until_fits t
    | None ->
        if cost <= t.budget then begin
          let s = sentinel_for t k v in
          let rec e =
            { key = k; value = v; entry_cost = cost; prev = e; next = e }
          in
          Tbl.add t.tbl k e;
          push_front s e;
          t.held_cost <- t.held_cost + cost;
          evict_until_fits t
        end

  let remove t k =
    match Tbl.find_opt t.tbl k with
    | None -> false
    | Some e ->
        drop t e;
        true

  let clear t =
    Tbl.reset t.tbl;
    (match t.sentinel with
    | Some s ->
        s.prev <- s;
        s.next <- s
    | None -> ());
    t.held_cost <- 0

  let resize t ~budget =
    if budget < 0 then invalid_arg "Lru_cache.resize: budget must be non-negative";
    t.budget <- budget;
    evict_until_fits t

  let iter t f =
    match t.sentinel with
    | None -> ()
    | Some s ->
        let rec go e =
          if e != s then begin
            f e.key e.value;
            go e.next
          end
        in
        go s.next
end
