(* fig_readpath — the read-path optimization study:

   1. hot vs cold point-lookup throughput under the decoded-node cache,
      against a disabled-cache control (the >= 2x hot-speedup gate for
      MPT and POS-Tree is recorded in BENCH_readpath.json);
   2. batched multi-get vs one-at-a-time lookups at batch sizes 1/16/256;
   3. cache hit-rate sweep across byte budgets;
   4. uniform vs zipfian key skew under a deliberately small budget. *)

open Siri_core
module Store = Siri_store.Store
module Node_cache = Siri_readpath.Node_cache
module Ycsb = Siri_workload.Ycsb
module Clock = Siri_benchkit.Clock
module Table = Siri_benchkit.Table
module Json = Siri_telemetry.Telemetry.Json

let kinds = Common.all
let n () = Params.pick ~quick:20_000 ~full:100_000
let lookup_count () = Params.pick ~quick:30_000 ~full:100_000

(* A fresh instance over its own store with the given cache budget. *)
let instance ?cache_bytes kind y =
  let store = Store.create ?cache_bytes () in
  (Common.make ~record_bytes:266 kind store).Generic.bulk_load
    (Ycsb.dataset y)

let uniform_keys y ~count =
  let rng = Rng.create Params.seed in
  let n = Ycsb.n y in
  List.init count (fun _ -> Ycsb.key y (Rng.int rng n))

let zipf_keys y ~count =
  let rng = Rng.create Params.seed in
  List.filter_map
    (function Ycsb.Read k -> Some k | Ycsb.Write _ -> None)
    (Ycsb.operations y ~rng ~theta:0.9 ~mix:{ Ycsb.write_ratio = 0.0 }
       ~count)

let time_lookups inst keys =
  let (), seconds =
    Clock.time (fun () ->
        List.iter (fun k -> ignore (inst.Generic.lookup k)) keys)
  in
  seconds

let kops keys seconds = Common.kops (List.length keys) seconds

(* --- 1. hot / cold / control ---------------------------------------------- *)

let hot_cold y keys =
  List.map
    (fun kind ->
      let control = instance ~cache_bytes:0 kind y in
      let control_kops = kops keys (time_lookups control keys) in
      let cached = instance ~cache_bytes:Node_cache.default_budget kind y in
      (* The bulk load may have left nodes in the cache; clearing makes
         the first pass an honest cold start (all misses + inserts). *)
      Node_cache.clear (Store.cache cached.Generic.store);
      let cold_kops = kops keys (time_lookups cached keys) in
      let hot_kops = kops keys (time_lookups cached keys) in
      ( Common.name kind,
        control_kops,
        cold_kops,
        hot_kops,
        hot_kops /. control_kops ))
    kinds

(* --- 2. batched multi-get -------------------------------------------------- *)

let chunks size l =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: tl ->
        if n = size then go (List.rev cur :: acc) [ x ] 1 tl
        else go acc (x :: cur) (n + 1) tl
  in
  go [] [] 0 l

let batch_sizes = [ 1; 16; 256 ]

let batched y keys =
  List.map
    (fun kind ->
      (* Cache disabled: what is measured is purely the traversal sharing
         of [get_many], not cache hits. *)
      let inst = instance ~cache_bytes:0 kind y in
      let single_kops = kops keys (time_lookups inst keys) in
      let per_size =
        List.map
          (fun size ->
            let batches = chunks size keys in
            let (), seconds =
              Clock.time (fun () ->
                  List.iter
                    (fun b -> ignore (inst.Generic.get_many b))
                    batches)
            in
            (size, kops keys seconds))
          batch_sizes
      in
      (Common.name kind, single_kops, per_size))
    kinds

(* --- 3. hit-rate sweep ----------------------------------------------------- *)

let budgets = [ 64 * 1024; 256 * 1024; 1024 * 1024; 4 * 1024 * 1024 ]

let fmt_budget b =
  if b >= 1024 * 1024 then Printf.sprintf "%d MB" (b / (1024 * 1024))
  else Printf.sprintf "%d KB" (b / 1024)

let hit_ratio cache ~hits0 ~misses0 =
  let h = Node_cache.hits cache - hits0
  and m = Node_cache.misses cache - misses0 in
  if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)

let sweep y keys =
  List.map
    (fun budget ->
      let cols =
        List.map
          (fun kind ->
            let inst = instance ~cache_bytes:budget kind y in
            let cache = Store.cache inst.Generic.store in
            Node_cache.clear cache;
            ignore (time_lookups inst keys) (* warm to steady state *);
            let hits0 = Node_cache.hits cache
            and misses0 = Node_cache.misses cache in
            let seconds = time_lookups inst keys in
            (Common.name kind, kops keys seconds,
             hit_ratio cache ~hits0 ~misses0))
          kinds
      in
      (budget, cols))
    budgets

(* --- 4. uniform vs zipf ---------------------------------------------------- *)

let skew y ~budget uniform zipfian =
  List.map
    (fun kind ->
      let run keys =
        let inst = instance ~cache_bytes:budget kind y in
        let cache = Store.cache inst.Generic.store in
        Node_cache.clear cache;
        ignore (time_lookups inst keys);
        let hits0 = Node_cache.hits cache
        and misses0 = Node_cache.misses cache in
        let seconds = time_lookups inst keys in
        (kops keys seconds, hit_ratio cache ~hits0 ~misses0)
      in
      let u_kops, u_hit = run uniform in
      let z_kops, z_hit = run zipfian in
      (Common.name kind, u_kops, u_hit, z_kops, z_hit))
    kinds

(* --- driver ----------------------------------------------------------------- *)

let run () =
  let n = n () in
  let y = Ycsb.create ~seed:Params.seed ~n () in
  let keys = uniform_keys y ~count:(lookup_count ()) in
  let zipfian = zipf_keys y ~count:(lookup_count ()) in

  let hc = hot_cold y keys in
  Table.print
    ~title:
      (Printf.sprintf
         "Read path: point-lookup throughput, kops/s (N=%d, %d lookups)" n
         (List.length keys))
    ~headers:[ "index"; "no cache"; "cold cache"; "hot cache"; "hot speedup" ]
    (List.map
       (fun (name, c, cold, hot, sp) ->
         [ name; Printf.sprintf "%.1f" c; Printf.sprintf "%.1f" cold;
           Printf.sprintf "%.1f" hot; Printf.sprintf "%.2fx" sp ])
       hc);

  let bt = batched y keys in
  Table.print
    ~title:"Read path: batched multi-get throughput, kops/s (cache disabled)"
    ~headers:
      ("index" :: "single lookup"
      :: List.map (fun s -> Printf.sprintf "batch %d" s) batch_sizes)
    (List.map
       (fun (name, single, per_size) ->
         name
         :: Printf.sprintf "%.1f" single
         :: List.map (fun (_, k) -> Printf.sprintf "%.1f" k) per_size)
       bt);

  let sw = sweep y keys in
  Table.print
    ~title:"Read path: hit rate and throughput vs cache budget (uniform keys)"
    ~headers:("budget" :: Common.names kinds)
    (List.map
       (fun (budget, cols) ->
         fmt_budget budget
         :: List.map
              (fun (_, k, hit) -> Printf.sprintf "%.1f (%.0f%%)" k (100. *. hit))
              cols)
       sw);

  let small_budget = 256 * 1024 in
  let sk = skew y ~budget:small_budget keys zipfian in
  Table.print
    ~title:
      (Printf.sprintf
         "Read path: uniform vs zipf(0.9) under a %s budget — kops/s (hit%%)"
         (fmt_budget small_budget))
    ~headers:[ "index"; "uniform"; "zipf 0.9" ]
    (List.map
       (fun (name, uk, uh, zk, zh) ->
         [ name;
           Printf.sprintf "%.1f (%.0f%%)" uk (100. *. uh);
           Printf.sprintf "%.1f (%.0f%%)" zk (100. *. zh) ])
       sk);

  Metrics.write ~id:"readpath"
    (Json.obj
       [ ("experiment", Json.str "readpath");
         ("host_domains", Json.int (Domain.recommended_domain_count ()));
         ("records", Json.int n);
         ("lookups", Json.int (List.length keys));
         ( "hot_cold",
           Json.arr
             (List.map
                (fun (name, c, cold, hot, sp) ->
                  Json.obj
                    [ ("index", Json.str name);
                      ("control_no_cache_kops", Json.num c);
                      ("cold_kops", Json.num cold);
                      ("hot_kops", Json.num hot);
                      ("hot_speedup", Json.num sp) ])
                hc) );
         ( "batched",
           Json.arr
             (List.map
                (fun (name, single, per_size) ->
                  Json.obj
                    (("index", Json.str name)
                     :: ("single_kops", Json.num single)
                     :: List.map
                          (fun (s, k) ->
                            (Printf.sprintf "batch_%d_kops" s, Json.num k))
                          per_size))
                bt) );
         ( "hit_rate_sweep",
           Json.arr
             (List.map
                (fun (budget, cols) ->
                  Json.obj
                    [ ("budget_bytes", Json.int budget);
                      ( "indexes",
                        Json.arr
                          (List.map
                             (fun (name, k, hit) ->
                               Json.obj
                                 [ ("index", Json.str name);
                                   ("kops", Json.num k);
                                   ("hit_ratio", Json.num hit) ])
                             cols) ) ])
                sw) );
         ( "skew",
           Json.obj
             [ ("budget_bytes", Json.int small_budget);
               ( "indexes",
                 Json.arr
                   (List.map
                      (fun (name, uk, uh, zk, zh) ->
                        Json.obj
                          [ ("index", Json.str name);
                            ("uniform_kops", Json.num uk);
                            ("uniform_hit_ratio", Json.num uh);
                            ("zipf_kops", Json.num zk);
                            ("zipf_hit_ratio", Json.num zh) ])
                      sk) ) ] ) ])
