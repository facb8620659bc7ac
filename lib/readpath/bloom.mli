(** Negative-lookup filter: a classic Bloom filter over the key set of one
    committed version, kept as a sidecar keyed by root hash.

    A read that misses the filter is guaranteed absent from that version,
    so the engine can answer [None] without touching a single node — the
    filter turns the worst read (a full root-to-leaf walk ending in
    nothing) into the cheapest one.  A read that hits the filter may still
    be absent (false positives are allowed and bounded by the sizing
    below); the traversal then settles it.  {e False negatives never
    happen}: [add]ed keys always test present, which qcheck enforces
    across all five index kinds.

    Versions are immutable, so a filter is built once — at [commit] time
    by copying the parent version's filter and adding the written keys
    (deleted keys stay set, costing only false positives), or from
    scratch during [bulk_load] — and never mutated afterwards.

    Sizing: [bits_per_key] bits per expected key (default 10) with
    [k = round(bits_per_key * ln 2)] probes (7 at the default) gives a
    false-positive rate of about [(1 - e^{-k/bpk})^k ~ 0.8%%].  Probes use
    double hashing over two independent FNV-1a variants — deliberately
    {e not} [Hash.of_string], so filter operations never perturb the
    [hash.count] telemetry the benchmarks rely on. *)

type t

val create : ?bits_per_key:int -> expected:int -> unit -> t
(** A fresh filter sized for [expected] keys (clamped to at least 1).
    [bits_per_key] below 1 is clamped to 1. *)

val add : t -> string -> unit

val mem : t -> string -> bool
(** [false] is definitive absence; [true] means "probably present". *)

val of_keys : ?bits_per_key:int -> string list -> t
(** Build and populate in one step (the [bulk_load] path). *)

val copy : t -> t
(** A detached copy — the parent-version filter a commit extends. *)

val add_all : t -> string list -> unit

val bits : t -> int
(** Filter width in bits. *)

val probes : t -> int
(** Hash probes per key ([k]). *)
