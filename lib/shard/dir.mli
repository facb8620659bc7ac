(** A durable directory, flat or sharded, opened by reading its layout
    from disk.  This is the one place that decides which layout a
    directory has; the server, [siri_serve] and the CLI open and read
    every directory through it.

    {b Detection} ({!open_}):
    - a [SHARDS] manifest: a sharded directory ({!Sharded});
    - a [pack/] directory: a flat directory on the pack backend;
    - a [MANIFEST] or a [journal] alone: a flat directory on the
      snapshot backend;
    - none of these: a new directory, created sharded when [spec] is
      given and flat otherwise, on [backend] (default [`Snapshot]).

    [backend] and [spec] only shape a directory being created.  A value
    that contradicts an existing directory is refused with [`Malformed]
    before anything is written, so opening never writes a second layout
    into a directory. *)

module Kv = Siri_core.Kv
module Hash = Siri_crypto.Hash
module Generic = Siri_core.Generic
module Durable = Siri_wal.Durable
module Engine = Siri_forkbase.Engine

type t

val open_ :
  ?sync:bool ->
  ?backend:Durable.backend ->
  ?runner:Sharded.runner ->
  ?spec:Partition.t ->
  dir:string ->
  empty_index:(unit -> Generic.t) ->
  unit ->
  (t, Siri_wal.Wal.error) result
(** Open (creating if needed) and recover.  [empty_index] is called
    once per shard (once for a flat directory) and must return a fresh
    instance with its own store each time.  [sync] is as in
    {!Durable.open_}; [runner] applies to a sharded directory only. *)

val describe : t -> string
(** One line naming the layout: ["flat, pack backend"] or
    ["sharded hash:4, generation 1, snapshot backend"]. *)

val spec : t -> Partition.t option
(** The partition of a sharded directory; [None] for a flat one. *)

type recovery = {
  journals : Durable.recovery array;  (** one per shard; one when flat *)
  top_clamped_bytes : int;  (** torn tail cut off the composite journal *)
  capped : int;  (** unpublished shard-journal records rolled back *)
}

val recovery : t -> recovery

val clamped : t -> bool
(** Recovery cut a torn or unpublished tail somewhere. *)

type head = {
  id : Hash.t;  (** commit id; the composite root when sharded *)
  root : Hash.t;  (** index root; the composite root when sharded *)
  version : int;  (** commit version; the global sequence when sharded *)
}

val branches : t -> string list
val head : t -> branch:string -> head

val view : t -> branch:string -> Views.t
(** The immutable read view at the branch head. *)

val engines : t -> Engine.t array
(** The engine of every shard (one when flat), for history walks. *)

val sink : t -> Siri_telemetry.Telemetry.sink

val commit : t -> branch:string -> message:string -> Kv.op list -> head

val retryable : t -> bool
(** Whether a commit that failed with a transient fault left the handle
    as it was, so the same commit may be retried: true when flat; false
    when sharded, where the fan-out may have landed on some shards only
    and the handle must be discarded (the directory recovers to the
    published prefix on the next {!open_}). *)

val checkpoint : t -> unit

val reshard : t -> shards:int -> (t, Siri_wal.Wal.error) result
(** {!Sharded.reshard}; a flat directory is refused with [`Malformed]
    and left as it is. *)

val close : t -> unit
