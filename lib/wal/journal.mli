(** An append-only journal file: the one file protocol behind both the
    flat commit journal ({!Wal}, [journal]) and the sharded composite
    journal ([top]).

    A journal is its [magic] followed by checksummed {!Siri_codec.Frame}s,
    one per record.  The record payload is the caller's ({!codec}); the
    journal owns everything else — scanning with the recovery rules
    below, opening for append behind a clamp, appending with flush and
    [fsync], atomic rewrites (checkpoints) and closing.

    {b Recovery rules} ({!scan}), total on arbitrary bytes:
    - a file shorter than the magic that is a prefix of it is a torn
      creation: an empty journal whose bytes are all clamped;
    - a frame that runs past the end of the input is a torn tail: it is
      reported as [clamped_bytes] and the valid prefix ends before it;
    - a {e complete} frame whose checksum fails is [`Tampered offset] —
      a truncation alone can never produce it;
    - a payload the codec cannot decode (or does not consume) is
      [`Malformed]. *)

type error =
  [ `Tampered of int  (** checksum failure at this byte offset *)
  | `Malformed of string ]

type 'a codec = {
  magic : string;  (** the file header *)
  encode : 'a -> string;  (** one record's payload *)
  decode : Siri_codec.Wire.Reader.t -> 'a;
      (** read one payload; raise {!Siri_codec.Wire.Reader.Truncated} on
          anything malformed.  Bytes left unread are malformed too. *)
}

type 'a scan = {
  entries : 'a list;  (** the valid records, in order *)
  ends : int list;  (** byte offset of the end of each valid record *)
  valid_prefix : int;  (** offset where the last valid record ends *)
  clamped_bytes : int;  (** torn bytes after [valid_prefix] *)
}

val scan : 'a codec -> string -> ('a scan, error) result
(** Split a journal's bytes into its longest valid prefix and a diagnosis
    of the rest, by the rules above.  Never raises. *)

val scan_file : 'a codec -> string -> ('a scan, error) result
(** {!scan} of the file at a path; an absent file is an empty journal. *)

type 'a t
(** A journal open for appending. *)

val open_ : ?sync:bool -> valid_prefix:int -> 'a codec -> string -> 'a t
(** Truncate the file to [valid_prefix] bytes when it is longer (the
    torn tail a {!scan} found, or any suffix the caller rolls back), then
    open it for appending.  An empty or absent file is first created
    with the magic ({!Siri_io.Io.create}, so its directory entry is
    durable too).  [sync] (default [true]) fsyncs every write. *)

val append_begin : 'a t -> 'a -> int * (unit -> unit)
(** Frame the record, write it, flush it and, when [sync], start its
    [fsync] ({!Siri_io.Io.fsync_begin}); returns the frame's size in
    bytes and the wait, which returns once the frame is durable.  Call
    the wait exactly once, before the next append.  A failed write,
    flush or fsync raises (from this call or from the wait) after
    truncating the file back to where the frame began and closing the
    journal for good: later appends and rewrites raise [Sys_error]
    naming the failure.  [Invalid_argument] once closed by {!close}. *)

val append : 'a t -> 'a -> int
(** {!append_begin} with the [fsync] inline: returns once the frame is
    durable, with the same failure handling. *)

val unappend : 'a t -> unit
(** Truncate the last appended frame off the file, after its wait: the
    write it journaled was not applied.  A failed truncate closes the
    journal as a failed append does. *)

val check : 'a t -> unit
(** Raise [Sys_error] if a failed append closed the journal. *)

val write : ?sync:bool -> 'a codec -> string -> 'a list -> unit
(** Atomically replace the file at a path with the magic and the given
    records ({!Siri_io.Io.replace}). *)

val rewrite : 'a t -> 'a list -> unit
(** {!write} over an open journal's file — the checkpoint compaction —
    then reopen it for appending.  Refused ({!check}) once a failed
    append closed the journal. *)

val length : 'a t -> int
(** The journal's size in bytes: what it was opened or rewritten with,
    plus every frame appended since. *)

val close : 'a t -> unit
(** Close.  Nothing is left to push: each {!append} flushed (and under
    [sync] fsynced) its frame.  Idempotent. *)
