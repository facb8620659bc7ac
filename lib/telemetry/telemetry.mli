(** Always-on observability for the SIRI substrate.

    The paper's contribution is measurement — throughput, latency, node
    reads/writes, deduplication — so the reproduction carries a first-class
    metering layer instead of ad-hoc counting inside [bench/].  A
    {!type-sink} collects three kinds of evidence:

    - {b counters} — cheap monotonic integers (node reads/writes, bytes
      serialized, hash invocations, cache hits/misses/evictions);
    - {b histograms} — log-bucketed latency distributions with
      p50/p95/p99 extraction (generalizing [Siri_benchkit.Hist] to bounded
      memory);
    - {b spans} — named scopes with nesting, for tracing where an
      operation spends its reads.

    Every event source (the store, the engine, the LRU, the remote
    simulation, and all four index implementations) reports through the
    same name schema: [store.get], [store.put], [store.put_unique],
    [hash.count], [cache.hit], [cache.miss], [cache.evict],
    [remote.retry], and per-index [<index>.<op>] probes
    ([mpt.lookup], [pos-tree.batch], …).  The durability layer
    ([Siri_wal]) adds [wal.append], [wal.append_bytes], [wal.fsync] and
    [wal.checkpoint] on the write path, and [recovery.replayed],
    [recovery.skipped], [recovery.clamped], [recovery.clamped_bytes]
    plus a [recovery] span (and a [wal.checkpoint] span) on the recovery
    path.

    {b Determinism.}  A sink is driven by a pluggable clock.  The default
    clock is a per-sink tick counter — every reading advances simulated
    time by one tick — so span durations and histogram contents are
    exactly reproducible in tests.  Production callers pass a wall clock
    (e.g. [Unix.gettimeofday]).

    {b Cost.}  The {!null} sink is a [None]-tagged option: every probe on
    it is a single pattern match, so instrumented hot paths stay hot when
    telemetry is off, and attaching a sink never changes any root hash —
    instrumentation observes, it does not serialize.

    {b Threads and domains.}  Counters, histograms and the completed-span
    list are guarded by an internal mutex, so server session threads on
    several domains can meter onto one shared sink.  {!with_span} keeps
    its nesting-depth cursor per domain ([Domain.DLS]): spans opened on
    different domains never share a depth.  Systhreads of one domain
    share that domain's cursor, so interleaved spans there record
    approximate depths, though the cursor still returns to 0. *)

type sink
(** A metrics collector, or the disabled {!null} sink. *)

val null : sink
(** The disabled sink: all recording operations are no-ops. *)

val create : ?clock:(unit -> float) -> ?max_spans:int -> unit -> sink
(** A fresh enabled sink.  [clock] defaults to a deterministic per-sink
    tick counter (each reading returns 1.0, 2.0, …).  At most [max_spans]
    (default 100_000) completed spans are retained; further spans are
    dropped and counted under the [telemetry.spans_dropped] counter so no
    loss is silent. *)

val enabled : sink -> bool
(** [false] exactly for {!null}. *)

val now : sink -> float
(** Read (and, under the tick clock, advance) the sink's clock; [0.] on
    {!null}. *)

(** {2 Counters} *)

val incr : sink -> ?by:int -> string -> unit
val counter : sink -> string -> int
(** 0 for a counter never incremented. *)

val counters : sink -> (string * int) list
(** All counters, sorted by name. *)

(** {2 Latency histograms} *)

module Histo : sig
  (** A log-bucketed distribution: power-of-two bucket boundaries starting
      at 1 ns, exact [count]/[sum]/[min]/[max], bounded memory regardless
      of sample count. *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val sum : t -> float
  val min_value : t -> float
  val max_value : t -> float
  val mean : t -> float

  val quantile : t -> float -> float
  (** [quantile h p] for [p] in [0, 1]: the upper bound of the bucket
      holding the rank-⌈p·count⌉ sample, clamped to [[min, max]] — an
      estimate whose error is bounded by the bucket width.  0 on an empty
      histogram. *)

  val p50 : t -> float
  val p95 : t -> float
  val p99 : t -> float

  val buckets : t -> (float * float * int) list
  (** Non-empty buckets as [(lower, upper, count)], in increasing order. *)
end

val observe : sink -> string -> float -> unit
(** Record one sample into the named histogram. *)

val histogram : sink -> string -> Histo.t option
val histograms : sink -> (string * Histo.t) list
(** All histograms, sorted by name. *)

val quantile : sink -> string -> float -> float
(** [quantile sink name p] — 0 if the histogram does not exist. *)

(** {2 Span tracing} *)

type span = {
  name : string;
  start_s : float;  (** clock reading at entry *)
  stop_s : float;  (** clock reading at exit (>= [start_s]) *)
  depth : int;  (** nesting depth at entry; 0 = top level *)
}

val with_span : sink -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named scope.  The completed span is recorded on
    exit (also when the thunk raises — the exception is re-raised).  The
    depth is the calling domain's; see the note above. *)

val spans : sink -> span list
(** Completed spans in completion order (inner spans before the scopes
    that contain them). *)

val span_depth : sink -> int
(** The calling domain's live nesting depth — 0 when no span is open
    there. *)

(** {2 Combined probe}

    The uniform per-operation instrumentation used by the index
    implementations: one call increments [<name>.calls], times the thunk
    into histogram [<name>] and wraps it in a span [<name>].  On {!null}
    this is a single pattern match around the thunk. *)

val probe : sink -> string -> (unit -> 'a) -> 'a

val reset : sink -> unit
(** Drop all counters, histograms and completed spans, and zero the
    calling domain's span depth (the clock keeps ticking forward). *)

(** {2 Hash metering}

    Routes {!Siri_crypto.Hash.set_digest_observer} into a sink: every
    digest computation increments [hash.count] and adds the input length
    to [hash.bytes]. *)

val attach_hash_counter : sink -> unit
(** Installs the observer (replacing any previous one).  Attaching
    {!null} is equivalent to {!detach_hash_counter}. *)

val detach_hash_counter : unit -> unit

(** {2 Export} *)

module Json : sig
  (** A minimal JSON builder (no external dependency) — also used by the
      benchmark sidecar writer. *)

  type t

  val obj : (string * t) list -> t
  val arr : t list -> t
  val str : string -> t
  val num : float -> t
  val int : int -> t
  val bool : bool -> t
  val to_string : t -> string
  (** Compact rendering; strings are escaped per RFC 8259. *)
end

val json_of_histo : Histo.t -> Json.t
(** [{"count":…,"sum":…,"min":…,"max":…,"mean":…,"p50":…,"p95":…,"p99":…}]. *)

val to_json : sink -> Json.t
(** The whole sink as one object:
    [{"counters":{…},"histograms":{…},"spans":[…]}].  {!null} exports
    empty sections. *)

val to_ndjson : sink -> string
(** One JSON object per line: [{"type":"counter",…}],
    [{"type":"histogram",…}], [{"type":"span",…}] — the
    machine-readable sidecar format. *)

val pp : Format.formatter -> sink -> unit
(** Human-readable dump: counters, histogram summaries, span count. *)
