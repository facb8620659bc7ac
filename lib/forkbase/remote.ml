module Store = Siri_store.Store
module Rng = Siri_core.Rng
module Hash = Siri_crypto.Hash
module Fault = Siri_fault.Fault
module Telemetry = Siri_telemetry.Telemetry

(* The client node cache: a hash set with LRU recency — the cost-budget
   LRU with unit values at cost 1, so the budget counts nodes. *)
module Lru = Siri_readpath.Lru_cache.Make (Hash)

type network = { rtt_s : float; bandwidth_bps : float }

(* The link parameters live in [Siri_core.Netparams] so the simulation and
   the real server benchmark share one set of constants. *)
let of_link (l : Siri_core.Netparams.link) =
  { rtt_s = l.Siri_core.Netparams.rtt_s;
    bandwidth_bps = l.Siri_core.Netparams.bandwidth_bps }

let gigabit_lan = of_link Siri_core.Netparams.gigabit_lan
let http_overhead = of_link Siri_core.Netparams.http_overhead

type t = {
  net : network;
  cache : unit Lru.t option;
  failure_rate : float;
  backoff_s : float;
  rng : Rng.t;
  mutable sim : float;
  mutable hits : int;
  mutable misses : int;
  mutable retries : int;
  sink : Telemetry.sink;
}

let transfer t size = t.net.rtt_s +. (Float.of_int size /. t.net.bandwidth_bps)

(* A request attempt may fail (flaky link); [Fault.with_retry] retries
   with exponential backoff, its [sleep] hook charging the dead air to
   simulated time.  Every failed attempt still burned a round trip,
   charged in the probe itself.  After [max_attempts] failures the client
   proceeds anyway: the payload does exist server-side, and an unbounded
   loop at failure rate 1.0 would never terminate. *)
let max_attempts = 10

let fetch t size =
  let probe () =
    if t.failure_rate > 0. && Rng.float t.rng < t.failure_rate then begin
      t.retries <- t.retries + 1;
      Telemetry.incr t.sink "remote.retry";
      t.sim <- t.sim +. t.net.rtt_s;
      raise (Store.Transient Hash.null)
    end
  in
  (match
     Fault.with_retry ~attempts:max_attempts ~backoff_s:t.backoff_s
       ~sleep:(fun d -> t.sim <- t.sim +. d)
       ~sink:t.sink probe
   with
  | Ok () | Error _ -> ());
  t.sim <- t.sim +. transfer t size

(* Refresh a cached node or admit a new one; [true] on a hit.  Admission
   may evict, and evictions are reported as [cache.evict]. *)
let touch t cache h =
  match Lru.find cache h with
  | Some () -> true
  | None ->
      let before = Lru.evictions cache in
      Lru.insert cache h ~cost:1 ();
      let evicted = Lru.evictions cache - before in
      if evicted > 0 then Telemetry.incr t.sink ~by:evicted "cache.evict";
      false

let on_get t h size =
  let hit () =
    t.hits <- t.hits + 1;
    Telemetry.incr t.sink "cache.hit"
  in
  let miss () =
    t.misses <- t.misses + 1;
    Telemetry.incr t.sink "cache.miss";
    fetch t size
  in
  match t.cache with
  | Some cache -> if touch t cache h then hit () else miss ()
  | None -> miss ()

let on_put t h size =
  (* Writes stream to the server; batching amortises the round trip, so we
     charge bandwidth only.  A freshly written node is hot at the client. *)
  t.sim <- t.sim +. (Float.of_int size /. t.net.bandwidth_bps);
  match t.cache with Some cache -> ignore (touch t cache h) | None -> ()

let attach store ?(cache_nodes = 0) ?(failure_rate = 0.) ?(backoff_s = 0.001)
    ?(seed = 1) ?(sink = Telemetry.null) net =
  let failure_rate =
    if failure_rate < 0. then 0.
    else if failure_rate > 1. then 1.
    else failure_rate
  in
  let t =
    { net;
      cache =
        (if cache_nodes > 0 then Some (Lru.create ~budget:cache_nodes) else None);
      failure_rate;
      backoff_s = (if backoff_s < 0. then 0. else backoff_s);
      rng = Rng.create seed;
      sim = 0.0;
      hits = 0;
      misses = 0;
      retries = 0;
      sink }
  in
  Store.set_get_observer store (Some (on_get t));
  Store.set_put_observer store (Some (on_put t));
  t

let detach store _t =
  Store.set_get_observer store None;
  Store.set_put_observer store None

let simulated_seconds t = t.sim
let hits t = t.hits
let misses t = t.misses
let retries t = t.retries

let reset t =
  t.sim <- 0.0;
  t.hits <- 0;
  t.misses <- 0;
  t.retries <- 0

