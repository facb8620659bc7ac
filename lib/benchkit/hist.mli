(** Sample collections for latency distributions (Figures 10–12). *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
val min_value : t -> float
val max_value : t -> float

val percentile : t -> float -> float
(** [percentile t 0.99] — nearest-rank percentile; 0 on an empty
    collection. *)

val buckets : t -> n:int -> (float * float * int) list
(** Split [min, max] into [n] equal-width ranges and count samples in each —
    the (latency-range, #records) histograms the paper plots. *)
