(** Every durable file effect of the library: creating, writing, flushing,
    fsyncing, renaming, truncating and removing files, and making,
    fsyncing and sweeping directories.  Callers own their formats and the
    order of their steps; the crash-ordering rules of each step live here
    (DESIGN.md §5, "Durable file effects").  Under [sync] a new name is
    durable before the call that made it returns: {!mkdir}, {!create},
    {!replace} and {!rename} fsync the parent directory.  [sync:false]
    skips every fsync.  Opening, renaming, truncating and fsyncing raise
    [Unix.Unix_error]; a failed write or flush raises [Sys_error]. *)

type file
(** A file open for appending. *)

val open_append : string -> file
val output : file -> string -> unit

val flush : file -> unit
(** Push the buffered bytes to the OS. *)

val fsync : file -> unit

val fsync_begin : file -> unit -> unit
(** Start fsyncing a file and return the wait, which returns once the
    fsync has, and raises what it raised.  The fsync runs on the file's
    helper pthread, started on first use and joined by {!close}; it
    takes no runtime lock, so it starts while the caller goes on.  Call
    the wait exactly once, before the file's next {!output}, {!fsync}
    or {!fsync_begin}. *)

val fsync_fd : string -> Unix.file_descr -> unit
(** Fsync the file at a path through a descriptor opened elsewhere. *)

val close : file -> unit
(** Close without flushing errors: callers flush (and fsync) first.
    Joins the file's helper pthread, if {!fsync_begin} started one. *)

val create : sync:bool -> string -> (out_channel -> unit) -> unit
(** Create (or truncate) a file, write it, flush, fsync, close, and fsync
    its directory. *)

val replace : sync:bool -> string -> (out_channel -> unit) -> unit
(** Atomic replace: write a fresh temp file beside the path
    ([path ^ ".tmp.<pid>.<counter>"]), flush and fsync it, rename it over
    the path and fsync the directory.  A crash leaves the old file or
    the new one, plus at most a temp file ({!is_tmp}); a failure removes
    the temp file and re-raises. *)

val mkdir : sync:bool -> string -> unit
(** Create a directory and its missing ancestors.  An existing one is
    left as it is, with no fsync. *)

val rename : sync:bool -> string -> string -> unit
val truncate : string -> int -> unit

val remove : string -> unit
(** Remove a file, or a directory and everything under it.  Best-effort:
    an absent path or a failed removal is ignored. *)

val sweep : string -> (string -> bool) -> unit
(** [sweep dir stale] reads [dir] once and {!remove}s each entry whose
    name is [stale]. *)

val is_tmp : ?base:string -> string -> bool
(** A temp file of an interrupted {!replace} (of [base], if given).
    None is ever live. *)

module For_testing : sig
  type effect =
    | Mkdir of string
    | Create of string
    | Flush of string * int  (** the file's length after the flush *)
    | Fsync of string
    | Fsync_dir of string
    | Rename of string * string
    | Truncate of string * int
    | Remove of string

  val record : (unit -> 'a) -> 'a * effect list
  (** Run a function and return, with its result, the effects this
      module performed meanwhile, from any thread or domain, in order. *)

  val fail_next_fsync : string -> unit
  (** Make the next fsync of the file at this path raise
      [Unix.Unix_error (EIO, "fsync", path)] without syncing; later
      fsyncs run as usual. *)
end
