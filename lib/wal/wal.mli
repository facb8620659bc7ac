(** The commit journal of a flat durable directory: its record types,
    its payload codec, and its recovery scan.

    The file protocol — magic, checksummed frames, torn-tail clamp,
    [`Tampered] on a complete frame that fails its checksum — is
    {!Journal}'s; this module supplies the [SIRIWAL1] magic and the
    payload, a {!Siri_codec.Wire}-encoded varint sequence number, a
    one-byte record tag, then the record body.  A frame is

    {v
    +--------------+---------------------------+------------------+
    | u32 len (BE) | 32-byte SHA-256 checksum  | payload (len B)  |
    +--------------+---------------------------+------------------+
    v}

    where the checksum covers the 4 length bytes {e and} the payload, so a
    bit flip anywhere in a complete frame — including its length prefix —
    fails verification.  A flipped length byte that makes the {e final}
    record appear to extend past the end of the input is
    indistinguishable from a torn write and is clamped — the standard WAL
    ambiguity (LevelDB and etcd resolve it the same way); every other
    single-bit flip over a frame is detected. *)

module Kv = Siri_core.Kv

val magic : string
(** The 8-byte journal file header (["SIRIWAL1"]). *)

type record =
  | Commit of { branch : string; message : string; ops : Kv.op list }
  | Fork of { from : string; name : string }
  | Merge of { into : string; from : string; message : string; ops : Kv.op list }
      (** A successful merge, recorded as the {e resolved} write batch
          ({!Siri_forkbase.Engine.merge_ops}) so that replay needs no
          serialized conflict policy: applying [ops] on [into] with
          [message] byte-reproduces the original merge commit. *)
  | Bulk of {
      branch : string;
      message : string;
      entries : (Kv.key * Kv.value) list;
    }
      (** A bulk load: replayed through
          {!Siri_forkbase.Engine.commit_bulk}, so on a version-0 branch
          recovery rebuilds through the index's canonical bottom-up
          [bulk_load] and byte-reproduces the original commit — the
          record the online reshard journals per migrated branch. *)

type error = Journal.error

val pp_error : Format.formatter -> error -> unit

val encode_record : seq:int -> record -> string
(** One complete frame (length prefix, checksum, payload) for appending.
    [seq] is the journal-wide monotone sequence number; the checkpoint
    manifest records the last sequence number captured by a snapshot, so
    a crash {e between} manifest publication and journal truncation
    replays nothing twice. *)

val codec : (int * record) Journal.codec
(** The journal codec: a record with its journal-wide sequence number. *)

type 'a scan = 'a Journal.scan = {
  entries : 'a list;
  ends : int list;
      (** byte offset of the end of each valid record — the crash
          simulator's oracle for "which committed prefix must survive a
          truncation at offset L" *)
  valid_prefix : int;
  clamped_bytes : int;
}

type scan_result = (int * record) scan
(** (sequence number, record) entries, in order. *)

val scan : string -> (scan_result, error) result
(** {!Journal.scan} with {!codec}: total on arbitrary bytes — every
    outcome is [Ok] (possibly clamped) or a typed [error], never an
    exception. *)
