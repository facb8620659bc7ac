(** The SIRI wire protocol: framed, checksummed request/response messages.

    Every message travels as one {!Siri_codec.Frame} —
    [len(4) | sha256(32) | payload] — the same framing as the WAL journal
    and the pack segments, so every byte that crosses the wire is covered
    by a digest: a flipped bit anywhere in a frame is refused as
    [`Tampered], a truncated frame as [`Malformed], and decoding is total
    — no exception ever escapes {!decode_request}/{!decode_response} on
    arbitrary bytes (the [test_server] adversarial storm pins this at
    every byte offset).

    The payload is {!Siri_codec.Wire} encoded: a version byte, a request
    deadline (requests only), a tag byte, then the body.  All list counts
    are validated against the remaining bytes before allocation, so a
    forged count cannot balloon memory. *)

module Hash = Siri_crypto.Hash
module Kv = Siri_core.Kv

val version : int
(** Protocol version byte (1).  A mismatch is refused as [`Malformed]. *)

val max_frame : int
(** Upper bound on a frame payload (64 MiB); larger declared lengths are
    refused before allocation. *)

(** {1 Messages} *)

type req =
  | Ping
  | Head of { branch : string }
  | Get of { branch : string; key : Kv.key }
  | Get_many of { branch : string; keys : Kv.key list }
  | Prove_many of { branch : string; keys : Kv.key list }
  | Commit of {
      req_id : string;
      branch : string;
      message : string;
      ops : Kv.op list;
    }
  | Stats
  | Scan of {
      branch : string;
      lo : Kv.key option;
      hi : Kv.key option;
      limit : int;  (** cap on streamed entries; 0 = unbounded *)
    }
      (** Streaming ordered read over the half-open interval [[lo, hi)].
          Answered with a sequence of {!response.Entries} frames — the
          only multi-frame reply in the protocol — each bounded, with
          [more = false] on the last; an [Err] frame aborts the stream
          (e.g. [Bad_request] for an index kind without ordered scans). *)

type request = {
  deadline_ms : int;
      (** per-request budget in milliseconds; 0 = no deadline.  The server
          refuses work it cannot start within the budget with
          [Err Timeout] instead of queueing it into unbounded latency. *)
  body : req;
}

type error_code =
  | Overload  (** the commit queue is full — back off and retry *)
  | Timeout  (** the request's deadline expired before it was served *)
  | Tampered  (** integrity failure: a bad frame, or a poisoned commit path *)
  | Read_only
      (** the commit path failed earlier (a tampered node or an I/O error
          on the journal or pack), or this commit's own write failed;
          writes are refused, reads still served *)
  | Bad_request  (** undecodable or invalid request *)
  | Unknown_branch

type response =
  | Pong
  | Head_r of { id : Hash.t; root : Hash.t; version : int }
  | Value of Kv.value option
  | Values of (Kv.key * Kv.value option) list
  | Proof of { root : Hash.t; proof : string  (** {!Siri_core.Multiproof.encode} bytes *) }
  | Committed of {
      req_id : string;
      commit : Hash.t;
      version : int;
      group_size : int;  (** client batches folded into the same WAL frame *)
    }
  | Stats_r of string  (** telemetry sink as JSON *)
  | Err of { code : error_code; detail : string }
  | Entries of { entries : (Kv.key * Kv.value) list; more : bool }
      (** One chunk of a {!req.Scan} reply stream; the client keeps
          reading frames until [more = false]. *)

val valid_req_id : string -> bool
(** 1–64 bytes of [A-Za-z0-9._-] — the charset keeps request ids safe to
    embed in group-commit messages, which is how the server makes them
    idempotent {e across} crash recovery. *)

(** {1 Payload codec (total)} *)

val encode_request : request -> string
val decode_request : string -> (request, [ `Malformed of string ]) result

val encode_response : response -> string
val decode_response : string -> (response, [ `Malformed of string ]) result

(** {1 Framing} *)

val seal : string -> string
(** Wrap a payload into a checksummed frame for the wire. *)

val unseal :
  string ->
  (string, [ `Tampered of string | `Malformed of string ]) result
(** Open exactly one frame covering the whole blob: checksum mismatch is
    [`Tampered], a torn / trailing / oversized frame is [`Malformed].
    Total on arbitrary bytes. *)

(** {1 Socket transport} *)

module Io : sig
  val write_frame : Unix.file_descr -> string -> (unit, [ `Closed ]) result
  (** Seal and send; [`Closed] on a broken peer (EPIPE/ECONNRESET). *)

  val read_frame :
    ?deadline:float ->
    Unix.file_descr ->
    ( string,
      [ `Tampered of string | `Malformed of string | `Timeout | `Closed ] )
    result
  (** Read one frame and verify its checksum.  [deadline] is an absolute
      [Unix.gettimeofday] instant; omitted = block forever.  Never raises
      on peer-controlled bytes: oversized lengths are refused before
      allocation, damage surfaces as [`Tampered]/[`Malformed], EOF as
      [`Closed]. *)
end
