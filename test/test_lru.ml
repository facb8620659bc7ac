(* LRU edge cases for the node-counting use of the cost-budget LRU (the
   simulated client cache of Remote): unit values at cost 1, so the budget
   is an entry count.  Degenerate capacities, recency order under repeated
   touches, clearing, churn, and the eviction counter's agreement with
   telemetry. *)

module Hash = Siri_crypto.Hash
module Lru = Siri_readpath.Lru_cache.Make (Hash)
module Telemetry = Siri_telemetry.Telemetry
module Store = Siri_store.Store
module Remote = Siri_forkbase.Remote
module Pos = Siri_pos.Pos_tree

let h i = Hash.of_string (string_of_int i)

(* Remote's access pattern: a hit refreshes, a miss admits the node. *)
let touch c k =
  match Lru.find c k with
  | Some () -> true
  | None ->
      Lru.insert c k ~cost:1 ();
      false

let test_negative_capacity () =
  Alcotest.check_raises "negative capacity rejected"
    (Invalid_argument "Lru_cache.create: budget must be non-negative") (fun () ->
      ignore (Lru.create ~budget:(-1)))

let test_capacity_zero () =
  let c = Lru.create ~budget:0 in
  Alcotest.(check int) "capacity" 0 (Lru.budget c);
  for i = 1 to 10 do
    Alcotest.(check bool) "every touch misses" false (touch c (h i));
    Alcotest.(check bool) "repeat still misses" false (touch c (h i))
  done;
  Alcotest.(check int) "retains nothing" 0 (Lru.size c);
  Alcotest.(check int) "nothing stored, nothing evicted" 0 (Lru.evictions c)

let test_capacity_one () =
  let c = Lru.create ~budget:1 in
  Alcotest.(check bool) "first touch misses" false (touch c (h 1));
  Alcotest.(check bool) "second touch hits" true (touch c (h 1));
  Alcotest.(check bool) "new key misses" false (touch c (h 2));
  Alcotest.(check bool) "old key evicted" false (Lru.mem c (h 1));
  Alcotest.(check bool) "new key resident" true (Lru.mem c (h 2));
  Alcotest.(check int) "size stays 1" 1 (Lru.size c);
  Alcotest.(check int) "one eviction" 1 (Lru.evictions c)

let test_eviction_order () =
  let c = Lru.create ~budget:2 in
  ignore (touch c (h 1));
  ignore (touch c (h 2));
  (* Refresh 1: now 2 is the least recently used. *)
  Alcotest.(check bool) "refresh hits" true (touch c (h 1));
  ignore (touch c (h 3));
  Alcotest.(check bool) "refreshed key survives" true (Lru.mem c (h 1));
  Alcotest.(check bool) "LRU key evicted" false (Lru.mem c (h 2));
  Alcotest.(check bool) "new key resident" true (Lru.mem c (h 3));
  (* Repeated touches of resident keys never evict. *)
  let before = Lru.evictions c in
  for _ = 1 to 20 do
    ignore (touch c (h 1));
    ignore (touch c (h 3))
  done;
  Alcotest.(check int) "hits do not evict" before (Lru.evictions c)

let test_eviction_order_deep () =
  (* Fill to capacity, touch the first key, insert one more: the evicted
     entry must be the second-oldest, not the (refreshed) first. *)
  let c = Lru.create ~budget:4 in
  List.iter (fun i -> ignore (touch c (h i))) [ 1; 2; 3; 4 ];
  Alcotest.(check bool) "refresh oldest" true (touch c (h 1));
  ignore (touch c (h 5));
  Alcotest.(check bool) "refreshed first survives" true (Lru.mem c (h 1));
  Alcotest.(check bool) "second-oldest evicted" false (Lru.mem c (h 2));
  List.iter
    (fun i ->
      Alcotest.(check bool) (Printf.sprintf "%d resident" i) true
        (Lru.mem c (h i)))
    [ 3; 4; 5 ];
  Alcotest.(check int) "exactly one eviction" 1 (Lru.evictions c)

let test_mem_does_not_refresh () =
  let c = Lru.create ~budget:2 in
  ignore (touch c (h 1));
  ignore (touch c (h 2));
  (* mem must not promote 1; the next insert still evicts it. *)
  Alcotest.(check bool) "mem sees 1" true (Lru.mem c (h 1));
  ignore (touch c (h 3));
  Alcotest.(check bool) "1 evicted despite mem" false (Lru.mem c (h 1))

let test_clear_keeps_evictions () =
  let c = Lru.create ~budget:1 in
  ignore (touch c (h 1));
  ignore (touch c (h 2));
  Alcotest.(check int) "one eviction before clear" 1 (Lru.evictions c);
  Lru.clear c;
  Alcotest.(check int) "clear empties" 0 (Lru.size c);
  Alcotest.(check bool) "gone" false (Lru.mem c (h 2));
  Alcotest.(check int) "clear is not an eviction" 1 (Lru.evictions c);
  (* Reusable after clear. *)
  ignore (touch c (h 9));
  Alcotest.(check bool) "works after clear" true (Lru.mem c (h 9))

let test_churn () =
  let c = Lru.create ~budget:10 in
  for i = 1 to 1000 do
    ignore (touch c (h (i mod 25)))
  done;
  Alcotest.(check int) "bounded" 10 (Lru.size c)

let test_telemetry_agreement () =
  (* Through Remote: every miss admits one node, so once the cache is
     full each further miss evicts exactly one — and each eviction must
     reach the sink as [cache.evict]. *)
  let store = Store.create () in
  let entries = List.init 300 (fun i -> (Printf.sprintf "k%05d" i, "v")) in
  let t = Pos.generic (Pos.of_entries store (Pos.config ~leaf_target:256 ()) entries) in
  let sink = Telemetry.create () in
  let capacity = 3 in
  let remote = Remote.attach store ~cache_nodes:capacity ~sink Remote.gigabit_lan in
  List.iter (fun (k, _) -> ignore (t.Siri_core.Generic.lookup k)) entries;
  Remote.detach store remote;
  Alcotest.(check bool) "more misses than capacity" true
    (Remote.misses remote > capacity);
  Alcotest.(check int) "cache.evict = misses - capacity"
    (Remote.misses remote - capacity)
    (Telemetry.counter sink "cache.evict")

let () =
  Alcotest.run "lru"
    [ ( "edge cases",
        [ Alcotest.test_case "negative capacity" `Quick test_negative_capacity;
          Alcotest.test_case "capacity 0" `Quick test_capacity_zero;
          Alcotest.test_case "capacity 1" `Quick test_capacity_one;
          Alcotest.test_case "eviction order" `Quick test_eviction_order;
          Alcotest.test_case "eviction order (deep)" `Quick test_eviction_order_deep;
          Alcotest.test_case "mem does not refresh" `Quick test_mem_does_not_refresh;
          Alcotest.test_case "clear keeps evictions" `Quick test_clear_keeps_evictions;
          Alcotest.test_case "churn stays bounded" `Quick test_churn;
          Alcotest.test_case "telemetry agreement" `Quick test_telemetry_agreement ]
      ) ]
