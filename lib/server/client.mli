(** Client side of the SIRI wire protocol: a blocking connection with
    timeouts, jittered-backoff reconnect and idempotent commits.

    Every request goes through {!Siri_fault.Fault.with_retry} — the one
    retry loop in the system: a broken or timed-out connection is torn
    down, re-dialled with full-jitter exponential backoff (seeded from
    [retry_jitter], deterministic in tests) and the request re-sent.
    Reads are safe to re-send because they are snapshot reads; commits
    are safe because the request id makes them idempotent server-side —
    a retried commit is applied at most once, even across a server crash.

    Integrity failures are {e never} retried: a [`Tampered] frame means
    the bytes in flight were damaged, and retrying cannot make them
    trustworthy.  [`Overload] and [`Read_only] are surfaced to the
    caller, who owns the decision to back off or fail over.

    Telemetry (optional [sink]): [server.reconnect] counts re-dials,
    [client.req] counts requests sent. *)

module Hash = Siri_crypto.Hash
module Kv = Siri_core.Kv

type t

type error =
  [ `Unavailable of string
    (** could not reach the server (connect/send/receive) after the retry
        budget *)
  | `Timeout  (** the server refused: deadline expired *)
  | `Overload  (** the server refused: queue full — back off and retry *)
  | `Read_only  (** the server is degraded; writes refused *)
  | `Unknown_branch of string
  | `Tampered of string  (** integrity failure on the wire or server-side *)
  | `Refused of string  (** server rejected the request as invalid *)
  | `Unexpected of string  (** well-formed but wrong-shaped response *) ]

val error_to_string : error -> string

val connect :
  ?connect_timeout_s:float ->
  ?request_timeout_s:float ->
  ?attempts:int ->
  ?backoff_s:float ->
  ?retry_jitter:int ->
  ?sink:Siri_telemetry.Telemetry.sink ->
  addr:Server.addr ->
  unit ->
  (t, error) result
(** Dial the server.  [connect_timeout_s] (default 5) bounds the dial;
    [request_timeout_s] (default 10) bounds each response wait;
    [attempts] (default 3) and [backoff_s] (default 0.05) shape the
    reconnect loop, with [retry_jitter] (default none) seeding full
    jitter.  The returned handle is NOT thread-safe — one handle per
    client thread.  The first call ignores [SIGPIPE] process-wide, so a
    server dying mid-write surfaces as [`Unavailable] instead of killing
    the process. *)

val close : t -> unit

(** {1 Requests}

    [deadline_ms] rides inside the request (0 = none): the server refuses
    work it cannot start within the budget with [`Timeout]. *)

val ping : ?deadline_ms:int -> t -> (unit, error) result

val head :
  ?deadline_ms:int -> t -> branch:string ->
  (Hash.t * Hash.t * int, error) result
(** [(commit id, index root, version)] of the branch head snapshot. *)

val get :
  ?deadline_ms:int -> t -> branch:string -> Kv.key ->
  (Kv.value option, error) result

val get_many :
  ?deadline_ms:int -> t -> branch:string -> Kv.key list ->
  ((Kv.key * Kv.value option) list, error) result

val scan :
  ?deadline_ms:int -> ?lo:Kv.key -> ?hi:Kv.key -> ?limit:int ->
  t -> branch:string ->
  ((Kv.key * Kv.value) list, error) result
(** Ordered entries of the half-open interval [[lo, hi)] at the branch
    head snapshot, streamed from the server in bounded [Entries] chunks
    and reassembled here.  [limit] (0 = unbounded) caps the stream
    server-side.  Unlike the other requests this one is {e not} retried
    once the first chunk has arrived — a transport fault mid-stream
    surfaces as [`Unavailable] rather than risking duplicated entries;
    an index kind without ordered scans answers [`Refused]. *)

val prove_many :
  ?deadline_ms:int -> t -> branch:string -> Kv.key list ->
  (Hash.t * string, error) result
(** [(root, encoded multiproof)] — verify with
    {!Siri_core.Generic.verify_many} against the returned root after
    {!Siri_core.Multiproof.decode}. *)

val commit :
  ?deadline_ms:int -> ?req_id:string -> t ->
  branch:string -> message:string -> Kv.op list ->
  (Hash.t * int * int, error) result
(** [(commit id, version, group_size)].  [req_id] defaults to a fresh
    unique id; pass an explicit one to make a retry {e across} client
    restarts idempotent.  Retries inside this call reuse the same id
    automatically. *)

val stats : ?deadline_ms:int -> t -> (string, error) result
(** The server's telemetry sink as JSON. *)
