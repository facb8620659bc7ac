(* Read-path layer: decoded-node cache equivalence across all five index
   kinds, batched multi-get vs one-at-a-time lookups, the generalized
   cost-budget LRU, the SIRI_NODE_CACHE override, and cache invalidation
   under tampering. *)

open Siri_core
module Store = Siri_store.Store
module Node_cache = Siri_readpath.Node_cache
module Mpt = Siri_mpt.Mpt
module Mbt = Siri_mbt.Mbt
module Pos = Siri_pos.Pos_tree
module Mvbt = Siri_mvbt.Mvbt
module Prolly = Siri_prolly.Prolly
module Engine = Siri_forkbase.Engine
module Telemetry = Siri_telemetry.Telemetry

(* Small node parameters so a few dozen records already build real trees. *)
let makers ~cache_bytes () =
  let s () = Store.create ~cache_bytes () in
  [ Mpt.generic (Mpt.empty (s ()));
    Mbt.generic (Mbt.empty (s ()) (Mbt.config ~capacity:32 ~fanout:4 ()));
    Pos.generic (Pos.empty (s ()) (Pos.config ~leaf_target:256 ()));
    Mvbt.generic
      (Mvbt.empty (s ()) (Mvbt.config ~leaf_capacity:4 ~internal_capacity:5 ()));
    Prolly.generic (Prolly.empty (s ())) ]

let op_gen =
  QCheck.Gen.(
    list_size (0 -- 80)
      (map2
         (fun del (k, v) -> if del then Kv.Del k else Kv.Put (k, v))
         (frequency [ (1, return true); (3, return false) ])
         (pair
            (string_size ~gen:(char_range 'a' 'e') (1 -- 4))
            (string_size (0 -- 10)))))

(* Same alphabet as the op keys, so query lists mix hits and misses. *)
let keys_gen =
  QCheck.Gen.(list_size (0 -- 60) (string_size ~gen:(char_range 'a' 'f') (1 -- 4)))

(* --- cached == uncached ---------------------------------------------------- *)

let qcheck_cache_transparent =
  QCheck.Test.make
    ~name:"cached lookups agree with uncached, every kind" ~count:50
    (QCheck.make QCheck.Gen.(pair op_gen keys_gen))
    (fun (ops, queries) ->
      List.for_all2
        (fun plain cached ->
          let p = plain.Generic.batch ops
          and c = cached.Generic.batch ops in
          (* Caching must not perturb commits either. *)
          Siri_crypto.Hash.equal p.Generic.root c.Generic.root
          && List.for_all
               (fun k ->
                 (* Twice: the second pass reads back what the first pass
                    put into the cache. *)
                 p.Generic.lookup k = c.Generic.lookup k
                 && p.Generic.lookup k = c.Generic.lookup k)
               queries)
        (makers ~cache_bytes:0 ())
        (makers ~cache_bytes:Node_cache.default_budget ()))

(* A tiny budget forces constant eviction; answers must not change. *)
let qcheck_cache_thrashing =
  QCheck.Test.make ~name:"thrashing cache still answers correctly" ~count:30
    (QCheck.make QCheck.Gen.(pair op_gen keys_gen))
    (fun (ops, queries) ->
      List.for_all2
        (fun plain small ->
          let p = plain.Generic.batch ops
          and s = small.Generic.batch ops in
          List.for_all (fun k -> p.Generic.lookup k = s.Generic.lookup k) queries)
        (makers ~cache_bytes:0 ())
        (makers ~cache_bytes:512 ()))

(* --- get_many and lookup against a Map model ------------------------------- *)

module Smap = Map.Make (String)

let apply model ops =
  List.fold_left
    (fun m -> function
      | Kv.Put (k, v) -> Smap.add k v m
      | Kv.Del k -> Smap.remove k m)
    model ops

let qcheck_get_many =
  QCheck.Test.make
    ~name:"get_many and lookup agree with the Map model, every kind" ~count:50
    (QCheck.make QCheck.Gen.(pair op_gen keys_gen))
    (fun (ops, queries) ->
      let model = apply Smap.empty ops in
      let expected = List.map (fun k -> (k, Smap.find_opt k model)) queries in
      List.for_all
        (fun inst ->
          let t = inst.Generic.batch ops in
          t.Generic.get_many queries = expected
          && List.map (fun k -> (k, t.Generic.lookup k)) queries = expected
          && List.map (fun k -> (k, Generic.get t k)) queries = expected)
        (makers ~cache_bytes:Node_cache.default_budget ()
        @ makers ~cache_bytes:0 ()))

(* A bulk-built tree is the one a checkpointed load serves; its reads go
   the same way as a batched tree's, present and absent keys alike. *)
let qcheck_bulk_load_get =
  QCheck.Test.make
    ~name:"bulk-loaded Generic.get/get_many agree with the sorted-assoc model"
    ~count:50
    (QCheck.make QCheck.Gen.(pair keys_gen keys_gen))
    (fun (put_keys, queries) ->
      let entries =
        List.map (fun k -> (k, "v" ^ k)) (List.sort_uniq compare put_keys)
      in
      let expected = List.map (fun k -> (k, List.assoc_opt k entries)) queries in
      List.for_all
        (fun inst ->
          let t = inst.Generic.bulk_load entries in
          t.Generic.get_many queries = expected
          && List.map (fun k -> (k, Generic.get t k)) queries = expected)
        (makers ~cache_bytes:0 () @ makers ~cache_bytes:Node_cache.default_budget ()))

(* --- Lru_cache (cost-budget functor) --------------------------------------- *)

module Slru = Siri_readpath.Lru_cache.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let test_lru_cache_budget () =
  let c = Slru.create ~budget:100 in
  Slru.insert c "a" ~cost:40 1;
  Slru.insert c "b" ~cost:40 2;
  Slru.insert c "c" ~cost:40 3;
  (* 120 > 100: the least recent entry (a) went. *)
  Alcotest.(check (option int)) "a evicted" None (Slru.find c "a");
  Alcotest.(check (option int)) "b stays" (Some 2) (Slru.find c "b");
  Alcotest.(check (option int)) "c stays" (Some 3) (Slru.find c "c");
  Alcotest.(check int) "one eviction" 1 (Slru.evictions c);
  Alcotest.(check int) "cost tracked" 80 (Slru.cost c)

let test_lru_cache_recency () =
  let c = Slru.create ~budget:3 in
  Slru.insert c "a" ~cost:1 1;
  Slru.insert c "b" ~cost:1 2;
  Slru.insert c "c" ~cost:1 3;
  ignore (Slru.find c "a");
  Slru.insert c "d" ~cost:1 4;
  (* a was refreshed, so b (second-oldest) is the victim. *)
  Alcotest.(check (option int)) "a survives" (Some 1) (Slru.find c "a");
  Alcotest.(check (option int)) "b evicted" None (Slru.find c "b");
  Alcotest.(check (option int)) "d resident" (Some 4) (Slru.find c "d")

let test_lru_cache_replace () =
  let c = Slru.create ~budget:10 in
  Slru.insert c "a" ~cost:4 1;
  Slru.insert c "a" ~cost:6 2;
  Alcotest.(check (option int)) "replaced value" (Some 2) (Slru.find c "a");
  Alcotest.(check int) "cost is the new cost" 6 (Slru.cost c);
  Alcotest.(check int) "still one entry" 1 (Slru.size c);
  (* Oversized replacement drains the cache, including the entry itself. *)
  Slru.insert c "a" ~cost:11 3;
  Alcotest.(check int) "drained" 0 (Slru.size c);
  Alcotest.(check int) "no cost held" 0 (Slru.cost c)

let test_lru_cache_oversized () =
  let c = Slru.create ~budget:10 in
  Slru.insert c "big" ~cost:11 1;
  Alcotest.(check (option int)) "never admitted" None (Slru.find c "big");
  Alcotest.(check int) "no eviction counted" 0 (Slru.evictions c)

let test_lru_cache_remove_resize_clear () =
  let c = Slru.create ~budget:10 in
  List.iter (fun (k, v) -> Slru.insert c k ~cost:2 v)
    [ ("a", 1); ("b", 2); ("c", 3); ("d", 4); ("e", 5) ];
  Alcotest.(check bool) "remove hit" true (Slru.remove c "c");
  Alcotest.(check bool) "remove miss" false (Slru.remove c "zz");
  Alcotest.(check int) "cost after remove" 8 (Slru.cost c);
  Alcotest.(check int) "removals are not evictions" 0 (Slru.evictions c);
  Slru.resize c ~budget:4;
  Alcotest.(check int) "resize evicts to fit" 4 (Slru.cost c);
  Alcotest.(check int) "two entries left" 2 (Slru.size c);
  (* The two most recent survive. *)
  Alcotest.(check (option int)) "d survives" (Some 4) (Slru.find c "d");
  Alcotest.(check (option int)) "e survives" (Some 5) (Slru.find c "e");
  Slru.clear c;
  Alcotest.(check int) "clear empties" 0 (Slru.size c);
  Slru.insert c "x" ~cost:1 9;
  Alcotest.(check (option int)) "usable after clear" (Some 9) (Slru.find c "x")

(* --- SIRI_NODE_CACHE override ---------------------------------------------- *)

let test_env_override () =
  let with_env v f =
    Unix.putenv "SIRI_NODE_CACHE" v;
    Fun.protect ~finally:(fun () -> Unix.putenv "SIRI_NODE_CACHE" "") f
  in
  Unix.putenv "SIRI_NODE_CACHE" "";
  Alcotest.(check (option int)) "empty = unset" None (Node_cache.budget_from_env ());
  with_env "1048576" (fun () ->
      Alcotest.(check (option int)) "bytes parsed" (Some 1_048_576)
        (Node_cache.budget_from_env ());
      let c = Node_cache.create () in
      Alcotest.(check int) "create honours env" 1_048_576 (Node_cache.budget c);
      Alcotest.(check bool) "enabled" true (Node_cache.enabled c));
  with_env "0" (fun () ->
      Alcotest.(check (option int)) "0 disables" (Some 0)
        (Node_cache.budget_from_env ());
      Alcotest.(check bool) "disabled" false
        (Node_cache.enabled (Node_cache.create ())));
  with_env "-7" (fun () ->
      Alcotest.(check (option int)) "negative clamps to 0" (Some 0)
        (Node_cache.budget_from_env ()));
  with_env "64mb" (fun () ->
      Alcotest.(check (option int)) "junk ignored" None
        (Node_cache.budget_from_env ()));
  (* Explicit argument beats the env. *)
  with_env "999" (fun () ->
      Alcotest.(check int) "explicit budget wins" 123
        (Node_cache.budget (Node_cache.create ~budget:123 ())))

(* --- tamper invalidation ---------------------------------------------------- *)

let test_tamper_invalidates_cache () =
  let store = Store.create ~cache_bytes:Node_cache.default_budget () in
  let t =
    List.fold_left
      (fun t i -> Mpt.insert t (Printf.sprintf "key-%03d" i) "v")
      (Mpt.empty store)
      (List.init 50 Fun.id)
  in
  (* Warm the cache on the root. *)
  Alcotest.(check (option string)) "present" (Some "v")
    ((Mpt.generic t).Generic.lookup "key-007");
  Alcotest.(check bool) "root cached" true
    (Node_cache.hits (Store.cache store) >= 0);
  ignore (Store.remove_node store (Mpt.root t));
  (* The removed node must not be served from the cache. *)
  Alcotest.check_raises "read-through sees the removal" Not_found (fun () ->
      ignore ((Mpt.generic t).Generic.lookup "key-007"))

(* --- engine reads ----------------------------------------------------------- *)

let test_engine_reads () =
  let store = Store.create ~cache_bytes:Node_cache.default_budget () in
  let eng = Engine.create ~empty_index:(Mpt.generic (Mpt.empty store)) in
  let entries = List.init 40 (fun i -> (Printf.sprintf "k%02d" i, "v0")) in
  ignore (Engine.commit_bulk eng ~branch:"master" ~message:"bulk" entries);
  ignore
    (Engine.commit eng ~branch:"master" ~message:"delta"
       [ Kv.Put ("k05", "v1"); Kv.Del ("k06"); Kv.Put ("new", "n") ]);
  Alcotest.(check (option string)) "updated" (Some "v1")
    (Engine.get eng ~branch:"master" "k05");
  Alcotest.(check (option string)) "deleted" None
    (Engine.get eng ~branch:"master" "k06");
  Alcotest.(check (option string)) "added" (Some "n")
    (Engine.get eng ~branch:"master" "new");
  Alcotest.(check (option string)) "absent" None
    (Engine.get eng ~branch:"master" "nope");
  let queries = [ "k01"; "nope"; "k05"; "k06"; "new"; "k01" ] in
  Alcotest.(check bool) "get_many = map get" true
    (Engine.get_many eng ~branch:"master" queries
    = List.map (fun k -> (k, Engine.get eng ~branch:"master" k)) queries)

(* A head reached by many small commits answers every absent key [None]
   and every present key its latest value, on every kind, cached or not. *)
let test_engine_absent_after_small_commits () =
  List.iter
    (fun inst ->
      let eng = Engine.create ~empty_index:inst in
      let model = ref Smap.empty in
      for c = 1 to 60 do
        let ops =
          List.init 16 (fun j ->
              let k = Printf.sprintf "k%03d" (((c * 37) + (j * 11)) mod 400) in
              if j mod 5 = 4 then Kv.Del k
              else Kv.Put (k, Printf.sprintf "v%d.%d" c j))
        in
        model := apply !model ops;
        ignore (Engine.commit eng ~branch:"master" ~message:"c" ops : Engine.commit)
      done;
      let absent = List.init 500 (Printf.sprintf "absent-%d") in
      let present = List.init 400 (Printf.sprintf "k%03d") in
      let queries = absent @ present in
      let expected = List.map (fun k -> (k, Smap.find_opt k !model)) queries in
      let name = inst.Generic.name in
      Alcotest.(check bool) (name ^ ": get answers the model") true
        (List.map (fun k -> (k, Engine.get eng ~branch:"master" k)) queries
        = expected);
      Alcotest.(check bool) (name ^ ": get_many answers the model") true
        (Engine.get_many eng ~branch:"master" queries = expected))
    (makers ~cache_bytes:0 () @ makers ~cache_bytes:Node_cache.default_budget ())

(* A walk is a hit only when the decoded-node cache is on and served
   every node; with the cache off every walk decodes, so every walk is a
   miss. *)
let hit_miss_telemetry ~cache_bytes ~hits ~misses () =
  let store = Store.create ~cache_bytes () in
  let inst =
    (Mpt.generic (Mpt.empty store)).Generic.bulk_load
      (List.init 60 (fun i -> (Printf.sprintf "k%03d" i, "v")))
  in
  let sink = Telemetry.create () in
  Store.set_sink store sink;
  ignore (Generic.get inst "k010") (* cold: decodes at least one node *);
  ignore (Generic.get inst "k010") (* warm: cache hits, if cached *);
  Store.set_sink store Telemetry.null;
  Alcotest.(check int) "miss-tier lookups" misses
    (Telemetry.counter sink "read.lookup.miss");
  Alcotest.(check int) "hit-tier lookups" hits
    (Telemetry.counter sink "read.lookup.hit");
  Alcotest.(check bool) "node hits recorded" (hits > 0)
    (Telemetry.counter sink "cache.node.hit" > 0)

let () =
  Alcotest.run "readpath"
    [ ( "equivalence",
        [ QCheck_alcotest.to_alcotest qcheck_cache_transparent;
          QCheck_alcotest.to_alcotest qcheck_cache_thrashing;
          QCheck_alcotest.to_alcotest qcheck_get_many;
          QCheck_alcotest.to_alcotest qcheck_bulk_load_get ] );
      ( "lru cache",
        [ Alcotest.test_case "byte budget" `Quick test_lru_cache_budget;
          Alcotest.test_case "recency" `Quick test_lru_cache_recency;
          Alcotest.test_case "replace" `Quick test_lru_cache_replace;
          Alcotest.test_case "oversized" `Quick test_lru_cache_oversized;
          Alcotest.test_case "remove/resize/clear" `Quick
            test_lru_cache_remove_resize_clear ] );
      ( "integration",
        [ Alcotest.test_case "env override" `Quick test_env_override;
          Alcotest.test_case "tamper invalidation" `Quick
            test_tamper_invalidates_cache;
          Alcotest.test_case "engine reads" `Quick test_engine_reads;
          Alcotest.test_case "engine reads after many small commits" `Quick
            test_engine_absent_after_small_commits;
          Alcotest.test_case "hit/miss telemetry" `Quick
            (hit_miss_telemetry ~cache_bytes:Node_cache.default_budget ~hits:1
               ~misses:1);
          Alcotest.test_case "hit/miss telemetry: cache off" `Quick
            (hit_miss_telemetry ~cache_bytes:0 ~hits:0 ~misses:2) ] ) ]
