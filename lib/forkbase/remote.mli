(** Simulated client/server deployment (Section 5.6).

    The Forkbase system experiment runs a servlet and a client over a
    network: reads that miss the client's node cache pay a round trip plus
    transfer time, writes ship their bytes to the server.  The simulation
    attaches observers to the node store and accounts those costs in
    *simulated seconds* — the benchmark then reports
    [compute time + simulated network time], which reproduces the régime
    where remote access dominates without actually sleeping.

    A Noms-like deployment is the same simulation without a client cache
    (every read pays the HTTP round trip) and with a higher per-request
    overhead. *)

module Store = Siri_store.Store

type network = {
  rtt_s : float;  (** per-request round-trip latency *)
  bandwidth_bps : float;  (** payload bytes per second *)
}

val gigabit_lan : network
(** {!Siri_core.Netparams.gigabit_lan}: 0.2 ms RTT, 1 Gb/s — the paper's
    testbed network. *)

val http_overhead : network
(** {!Siri_core.Netparams.http_overhead}: the Noms HTTP setup, 1 ms per
    request, same bandwidth. *)

type t

val attach :
  Store.t ->
  ?cache_nodes:int ->
  ?failure_rate:float ->
  ?backoff_s:float ->
  ?seed:int ->
  ?sink:Siri_telemetry.Telemetry.sink ->
  network ->
  t
(** Install observers on the store.  [cache_nodes = 0] (or omitted cache)
    disables the client cache.  Only one simulation may be attached to a
    store at a time.

    [failure_rate] (default 0, clamped to [0, 1]) makes each remote request
    attempt fail with that probability; the client retries with exponential
    backoff (base [backoff_s], default 1 ms, doubling per attempt, at most
    10 attempts per request).  Every failed attempt is charged a full round
    trip plus the backoff pause in simulated seconds — flaky links slow the
    simulation down exactly the way they slow a real deployment down.
    Draws are seeded ([seed], default 1) so runs are reproducible.

    With a [sink], every cache hit / miss / eviction and every retried
    request increments [cache.hit] / [cache.miss] / [cache.evict] /
    [remote.retry].  Pairing the same sink with
    {!Siri_store.Store.set_sink} yields the conservation invariant
    [cache.hit + cache.miss = store.get]. *)

val detach : Store.t -> t -> unit

val simulated_seconds : t -> float
(** Accumulated network time since attach (or the last {!reset}),
    including time burned by failed attempts and backoff. *)

val hits : t -> int
val misses : t -> int

val retries : t -> int
(** Failed request attempts that were retried. *)

val reset : t -> unit
(** Zero the counters and simulated time (the cache keeps its contents). *)
