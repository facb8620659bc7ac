(** Deterministic fault injection and the typed error domain.

    The paper's central robustness claim is that SIRI structures are
    tamper-evident: every node is addressed by the hash of its bytes, so any
    page corruption is detectable on read (§2, §5.7).  This module makes
    that claim testable at system scale.  A seeded {!plan} armed on a
    {!Siri_store.Store.t} injects

    - {b bit flips} and {b truncations} — persistent payload damage, found
      by [Store.scrub] and surfaced as [`Tampered] by verified reads;
    - {b drops} — nodes that vanish from the read path ([`Missing]);
    - {b transient failures} — flaky-link reads that succeed on retry
      ([`Transient]);
    - {b latency} — accounted in simulated seconds, never slept.

    All randomness flows from the plan's seed through a splitmix generator,
    so a chaos run is exactly reproducible.

    The second half of the module is the {b typed error domain} unifying the
    untyped exceptions that used to leak out of the stack ([Not_found],
    [Failure], [Invalid_argument], [Wire.Reader.Truncated]): {!protect} runs
    any operation and folds every fault into {!type-error}; {!retrying} adds
    bounded retries for transient faults; [*_checked] are verified,
    [result]-returning store accessors.  The exception API stays available
    for hot benchmark paths. *)

module Hash = Siri_crypto.Hash
module Store = Siri_store.Store

(** {1 Typed error domain} *)

type error =
  [ `Tampered of Hash.t  (** payload fails hash verification *)
  | `Missing of Hash.t
    (** node absent ({!Hash.null} when the failing hash is unknown, e.g.
        mapped from a bare [Not_found]) *)
  | `Transient of Hash.t  (** transient read failure; retryable *)
  | `Malformed of string  (** undecodable bytes or file *) ]

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

val protect : (unit -> 'a) -> ('a, error) result
(** Run an operation, folding typed store faults ({!Store.Tampered},
    {!Store.Missing}, {!Store.Transient}) and the legacy untyped leaks
    ([Not_found], [Wire.Reader.Truncated], [Failure], [Invalid_argument])
    into {!type-error}.  Any other exception propagates. *)

val with_retry :
  ?attempts:int ->
  ?backoff_s:float ->
  ?jitter:int ->
  ?sleep:(float -> unit) ->
  ?sink:Siri_telemetry.Telemetry.sink ->
  (unit -> 'a) ->
  ('a, error) result
(** The one retry loop in the system.  Like {!protect}, but a [`Transient]
    failure is retried up to [attempts] times total (default 3, clamped to
    at least 1), sleeping [backoff_s * 2^i] before retry [i+1] (default
    backoff [0.], i.e. immediate).  With [jitter] (a seed), each pause is
    instead {e full-jitter}: uniform in [0, backoff_s * 2^i), drawn from a
    splitmix generator seeded with [jitter] — synchronized clients spread
    their retries out instead of storming a recovering server in lockstep,
    and the exact schedule replays deterministically from the seed.
    [sleep] overrides the wall-clock sleep — deployment simulations pass a
    function that charges simulated seconds instead.  Each retry
    increments the [retry.attempt] counter on [sink] and a final surrender
    increments [retry.give_up] (default sink:
    {!Siri_telemetry.Telemetry.null}).  Non-transient results return
    immediately. *)

val retrying :
  ?attempts:int -> (unit -> 'a) -> ('a, error) result
(** [with_retry ?attempts] with defaults — kept as the short name for call
    sites that need no backoff or telemetry. *)

(** {1 Verified store accessors} *)

val get_checked : Store.t -> Hash.t -> (string, error) result
(** Fetch and re-hash: returns [`Tampered] when the payload does not hash
    to its key, [`Missing]/[`Transient] on (injected or real) absence. *)

val children_checked : Store.t -> Hash.t -> (Hash.t list, error) result

(** {1 Fault plans} *)

type plan = private {
  seed : int;
  bit_flip : float;  (** per-node probability of a persistent bit flip *)
  truncate : float;  (** per-node probability of payload truncation *)
  drop : float;  (** per-node probability of vanishing from reads *)
  transient : float;  (** per-read probability of a transient failure *)
  latency_s : float;  (** simulated seconds charged per successful read *)
  verify_reads : bool;
      (** re-hash every gated read and raise {!Store.Tampered} on mismatch
          (the Merkle verified-read mode; default [true]) *)
}

val plan :
  ?bit_flip:float ->
  ?truncate:float ->
  ?drop:float ->
  ?transient:float ->
  ?latency_s:float ->
  ?verify_reads:bool ->
  seed:int ->
  unit ->
  plan
(** All rates default to [0.]; probabilities are clamped to [0, 1]. *)

type armed
(** A store with a plan armed on it: persistent corruptions applied, read
    gate installed. *)

val arm : plan -> Store.t -> armed
(** Select victims among the nodes currently stored (deterministically from
    the seed), apply the persistent corruptions, and install the read gate
    for drop/transient/latency/verification behaviour.  Nodes written after
    arming are not corrupted but still pass through the gate.  Only one
    plan may be armed on a store at a time. *)

val flip_blob : seed:int -> rate:float -> string -> string * int list
(** Plan-style damage for a raw byte blob (e.g. a write-ahead journal
    file): every byte is independently hit with probability [rate]
    (clamped to [0, 1]); a hit flips one seeded-random bit.  Returns the
    damaged copy and the hit offsets in increasing order.  Deterministic
    in [seed] — the same blob and seed reproduce the same damage, so a
    crash-simulation failure replays exactly. *)

(** {1 Segment I/O gates}

    Raw-read fault injection for file-backed storage (pack segments).  An
    {!io_gate} reuses the {!plan} rates but applies them to raw byte reads
    rather than store nodes: [transient] raises {!Store.Transient} (to be
    absorbed by {!with_retry}), [bit_flip] flips one seeded-random bit in
    the returned bytes, [truncate] halves them.  The gate sits {e between}
    the [pread] and the record verification, so injected damage must be
    caught by the head digest or the content hash and surface as
    [`Tampered] — never as a wrong read. *)

type io_gate

val io_gate : plan -> io_gate
(** Fresh gate state seeded from [plan.seed]; draws are deterministic in
    the read sequence. *)

val gate_read : io_gate -> Hash.t -> string -> string
(** [gate_read g h bytes] passes [bytes] through the gate: returns them
    unchanged, damaged (flip/truncate), or raises [Store.Transient h]. *)

val io_transients : io_gate -> int
val io_flips : io_gate -> int

val io_truncations : io_gate -> int
(** Injection counters, in the order transient / bit-flip / truncation. *)

val disarm : armed -> unit
(** Remove the read gate.  Persistent corruptions remain (use
    [Store.repair] to heal them). *)

val store : armed -> Store.t

val corrupted : armed -> Hash.t list
(** Hashes whose payloads were persistently damaged (bit flips and
    truncations), sorted — exactly the set [Store.scrub] must report. *)

val dropped : armed -> Hash.t list
(** Hashes that vanish from the read path, sorted. *)

val injected_transients : armed -> int
(** Transient failures raised so far. *)

val reads : armed -> int
(** Reads that passed through the gate. *)

val simulated_latency : armed -> float
(** Accumulated injected latency in simulated seconds. *)
