module Hash = Siri_crypto.Hash
module Wire = Siri_codec.Wire
module Frame = Siri_codec.Frame
module Kv = Siri_core.Kv

let version = 1
let max_frame = 64 * 1024 * 1024

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
      limit : int;  (** 0 = unbounded *)
    }

type request = { deadline_ms : int; body : req }

type error_code =
  | Overload
  | Timeout
  | Tampered
  | Read_only
  | Bad_request
  | Unknown_branch

type response =
  | Pong
  | Head_r of { id : Hash.t; root : Hash.t; version : int }
  | Value of Kv.value option
  | Values of (Kv.key * Kv.value option) list
  | Proof of { root : Hash.t; proof : string }
  | Committed of {
      req_id : string;
      commit : Hash.t;
      version : int;
      group_size : int;
    }
  | Stats_r of string
  | Err of { code : error_code; detail : string }
  | Entries of { entries : (Kv.key * Kv.value) list; more : bool }
      (** One bounded chunk of a streaming scan reply; the server keeps
          sending [Entries] frames until [more = false] (or an [Err]
          frame aborts the stream). *)

let valid_req_id s =
  let n = String.length s in
  n >= 1 && n <= 64
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
         | _ -> false)
       s

(* --- payload codec ------------------------------------------------------------ *)

(* Reading a count that the sender controls: each element needs at least
   one byte of input, so a count larger than the remaining bytes is a
   forgery — refuse it before allocating anything. *)
let checked_count r =
  let n = Wire.Reader.varint r in
  if n > Wire.Reader.remaining r then failwith "forged list count";
  n

let put_ops w ops =
  Wire.Writer.varint w (List.length ops);
  List.iter
    (function
      | Kv.Put (k, v) ->
          Wire.Writer.u8 w 0;
          Wire.Writer.str w k;
          Wire.Writer.str w v
      | Kv.Del k ->
          Wire.Writer.u8 w 1;
          Wire.Writer.str w k)
    ops

let get_ops r =
  let n = checked_count r in
  List.init n (fun _ ->
      match Wire.Reader.u8 r with
      | 0 ->
          let k = Wire.Reader.str r in
          let v = Wire.Reader.str r in
          Kv.Put (k, v)
      | 1 -> Kv.Del (Wire.Reader.str r)
      | t -> failwith (Printf.sprintf "bad op tag %d" t))

let put_keys w keys =
  Wire.Writer.varint w (List.length keys);
  List.iter (Wire.Writer.str w) keys

let get_keys r =
  let n = checked_count r in
  List.init n (fun _ -> Wire.Reader.str r)

let put_key_opt w = function
  | None -> Wire.Writer.u8 w 0
  | Some k ->
      Wire.Writer.u8 w 1;
      Wire.Writer.str w k

let get_key_opt r =
  match Wire.Reader.u8 r with
  | 0 -> None
  | 1 -> Some (Wire.Reader.str r)
  | t -> failwith (Printf.sprintf "bad option tag %d" t)

let encode_request { deadline_ms; body } =
  let w = Wire.Writer.create () in
  Wire.Writer.u8 w version;
  Wire.Writer.u32 w (max 0 deadline_ms);
  (match body with
  | Ping -> Wire.Writer.u8 w 0
  | Head { branch } ->
      Wire.Writer.u8 w 1;
      Wire.Writer.str w branch
  | Get { branch; key } ->
      Wire.Writer.u8 w 2;
      Wire.Writer.str w branch;
      Wire.Writer.str w key
  | Get_many { branch; keys } ->
      Wire.Writer.u8 w 3;
      Wire.Writer.str w branch;
      put_keys w keys
  | Prove_many { branch; keys } ->
      Wire.Writer.u8 w 4;
      Wire.Writer.str w branch;
      put_keys w keys
  | Commit { req_id; branch; message; ops } ->
      Wire.Writer.u8 w 5;
      Wire.Writer.str w req_id;
      Wire.Writer.str w branch;
      Wire.Writer.str w message;
      put_ops w ops
  | Stats -> Wire.Writer.u8 w 6
  | Scan { branch; lo; hi; limit } ->
      Wire.Writer.u8 w 7;
      Wire.Writer.str w branch;
      put_key_opt w lo;
      put_key_opt w hi;
      Wire.Writer.varint w limit);
  Wire.Writer.contents w

(* Decoders are total: every parse failure — truncation, a bad tag, a
   version mismatch, trailing bytes, a forged count — folds into
   [`Malformed].  Nothing else may escape. *)
let decode payload read =
  match
    let r = Wire.Reader.of_string payload in
    let v = Wire.Reader.u8 r in
    if v <> version then failwith (Printf.sprintf "protocol version %d" v);
    let m = read r in
    if not (Wire.Reader.at_end r) then failwith "trailing bytes";
    m
  with
  | m -> Ok m
  | exception Wire.Reader.Truncated -> Error (`Malformed "truncated message")
  | exception Failure msg -> Error (`Malformed msg)
  | exception Invalid_argument msg -> Error (`Malformed msg)

let decode_request payload =
  decode payload @@ fun r ->
  let deadline_ms = Wire.Reader.u32 r in
  let body =
    match Wire.Reader.u8 r with
    | 0 -> Ping
    | 1 -> Head { branch = Wire.Reader.str r }
    | 2 ->
        let branch = Wire.Reader.str r in
        let key = Wire.Reader.str r in
        Get { branch; key }
    | 3 ->
        let branch = Wire.Reader.str r in
        Get_many { branch; keys = get_keys r }
    | 4 ->
        let branch = Wire.Reader.str r in
        Prove_many { branch; keys = get_keys r }
    | 5 ->
        let req_id = Wire.Reader.str r in
        if not (valid_req_id req_id) then failwith "invalid request id";
        let branch = Wire.Reader.str r in
        let message = Wire.Reader.str r in
        Commit { req_id; branch; message; ops = get_ops r }
    | 6 -> Stats
    | 7 ->
        let branch = Wire.Reader.str r in
        let lo = get_key_opt r in
        let hi = get_key_opt r in
        let limit = Wire.Reader.varint r in
        Scan { branch; lo; hi; limit }
    | t -> failwith (Printf.sprintf "bad request tag %d" t)
  in
  { deadline_ms; body }

let code_byte = function
  | Overload -> 0
  | Timeout -> 1
  | Tampered -> 2
  | Read_only -> 3
  | Bad_request -> 4
  | Unknown_branch -> 5

let code_of_byte = function
  | 0 -> Overload
  | 1 -> Timeout
  | 2 -> Tampered
  | 3 -> Read_only
  | 4 -> Bad_request
  | 5 -> Unknown_branch
  | b -> failwith (Printf.sprintf "bad error code %d" b)

let put_value_opt w = function
  | None -> Wire.Writer.u8 w 0
  | Some v ->
      Wire.Writer.u8 w 1;
      Wire.Writer.str w v

let get_value_opt r =
  match Wire.Reader.u8 r with
  | 0 -> None
  | 1 -> Some (Wire.Reader.str r)
  | t -> failwith (Printf.sprintf "bad option tag %d" t)

let encode_response resp =
  let w = Wire.Writer.create () in
  Wire.Writer.u8 w version;
  (match resp with
  | Pong -> Wire.Writer.u8 w 0
  | Head_r { id; root; version = v } ->
      Wire.Writer.u8 w 1;
      Wire.Writer.hash w id;
      Wire.Writer.hash w root;
      Wire.Writer.varint w v
  | Value v ->
      Wire.Writer.u8 w 2;
      put_value_opt w v
  | Values kvs ->
      Wire.Writer.u8 w 3;
      Wire.Writer.varint w (List.length kvs);
      List.iter
        (fun (k, v) ->
          Wire.Writer.str w k;
          put_value_opt w v)
        kvs
  | Proof { root; proof } ->
      Wire.Writer.u8 w 4;
      Wire.Writer.hash w root;
      Wire.Writer.str w proof
  | Committed { req_id; commit; version = v; group_size } ->
      Wire.Writer.u8 w 5;
      Wire.Writer.str w req_id;
      Wire.Writer.hash w commit;
      Wire.Writer.varint w v;
      Wire.Writer.varint w group_size
  | Stats_r json ->
      Wire.Writer.u8 w 6;
      Wire.Writer.str w json
  | Err { code; detail } ->
      Wire.Writer.u8 w 7;
      Wire.Writer.u8 w (code_byte code);
      Wire.Writer.str w detail
  | Entries { entries; more } ->
      Wire.Writer.u8 w 8;
      Wire.Writer.varint w (List.length entries);
      List.iter
        (fun (k, v) ->
          Wire.Writer.str w k;
          Wire.Writer.str w v)
        entries;
      Wire.Writer.u8 w (if more then 1 else 0));
  Wire.Writer.contents w

let decode_response payload =
  decode payload @@ fun r ->
  match Wire.Reader.u8 r with
  | 0 -> Pong
  | 1 ->
      let id = Wire.Reader.hash r in
      let root = Wire.Reader.hash r in
      let version = Wire.Reader.varint r in
      Head_r { id; root; version }
  | 2 -> Value (get_value_opt r)
  | 3 ->
      let n = checked_count r in
      Values
        (List.init n (fun _ ->
             let k = Wire.Reader.str r in
             (k, get_value_opt r)))
  | 4 ->
      let root = Wire.Reader.hash r in
      let proof = Wire.Reader.str r in
      Proof { root; proof }
  | 5 ->
      let req_id = Wire.Reader.str r in
      let commit = Wire.Reader.hash r in
      let version = Wire.Reader.varint r in
      let group_size = Wire.Reader.varint r in
      Committed { req_id; commit; version; group_size }
  | 6 -> Stats_r (Wire.Reader.str r)
  | 7 ->
      let code = code_of_byte (Wire.Reader.u8 r) in
      let detail = Wire.Reader.str r in
      Err { code; detail }
  | 8 ->
      let n = checked_count r in
      let entries =
        List.init n (fun _ ->
            let k = Wire.Reader.str r in
            let v = Wire.Reader.str r in
            (k, v))
      in
      let more =
        match Wire.Reader.u8 r with
        | 0 -> false
        | 1 -> true
        | t -> failwith (Printf.sprintf "bad more flag %d" t)
      in
      Entries { entries; more }
  | t -> failwith (Printf.sprintf "bad response tag %d" t)

(* --- framing ------------------------------------------------------------------- *)

let seal = Frame.encode

let unseal blob =
  if String.length blob > max_frame + Frame.header_len then
    Error (`Malformed "frame too large")
  else
    match Frame.step blob ~pos:0 with
    | Frame.Frame { payload_off; payload_len; next }
      when next = String.length blob ->
        Ok (String.sub blob payload_off payload_len)
    | Frame.Frame _ -> Error (`Malformed "trailing bytes after frame")
    | Frame.End -> Error (`Malformed "empty frame")
    | Frame.Torn n -> Error (`Malformed (Printf.sprintf "torn frame (%d bytes)" n))
    | Frame.Corrupt -> Error (`Tampered "frame checksum mismatch")

(* --- socket transport ---------------------------------------------------------- *)

module Io = struct
  let write_frame fd payload =
    let blob = seal payload in
    let len = String.length blob in
    let buf = Bytes.unsafe_of_string blob in
    let rec go off =
      if off >= len then Ok ()
      else
        match Unix.write fd buf off (len - off) with
        | n -> go (off + n)
        | exception
            Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
          ->
            Error `Closed
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    in
    go 0

  (* [recv_exact] fills [buf.[off .. off+len)] from the socket, waiting in
     [select] so an absolute [deadline] bounds the whole read.  A closed
     descriptor (the server's stop path closes session fds from another
     thread) surfaces as [`Closed], never an exception. *)
  let recv_exact fd buf ~off ~len ~deadline =
    let rec go off len =
      if len = 0 then Ok ()
      else
        let timeout =
          match deadline with
          | None -> -1.0 (* negative = block *)
          | Some d -> d -. Unix.gettimeofday ()
        in
        if (match deadline with Some _ -> timeout <= 0. | None -> false) then
          Error `Timeout
        else
          match Unix.select [ fd ] [] [] timeout with
          | [], _, _ -> Error `Timeout
          | _ -> (
              match Unix.read fd buf off len with
              | 0 -> Error `Closed
              | n -> go (off + n) (len - n)
              | exception
                  Unix.Unix_error
                    ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) ->
                  Error `Closed
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len)
          | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
              Error `Closed
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len
    in
    go off len

  let read_frame ?deadline fd =
    let hdr = Bytes.create 4 in
    match recv_exact fd hdr ~off:0 ~len:4 ~deadline with
    | Error _ as e -> e
    | Ok () ->
        let len =
          (Char.code (Bytes.get hdr 0) lsl 24)
          lor (Char.code (Bytes.get hdr 1) lsl 16)
          lor (Char.code (Bytes.get hdr 2) lsl 8)
          lor Char.code (Bytes.get hdr 3)
        in
        if len > max_frame then
          (* A forged (or flipped) length: refuse before allocating.  The
             checksum would catch it too, but not before the allocation. *)
          Error (`Malformed "frame too large")
        else begin
          let total = 4 + Hash.size + len in
          let blob = Bytes.create total in
          Bytes.blit hdr 0 blob 0 4;
          match recv_exact fd blob ~off:4 ~len:(total - 4) ~deadline with
          | Error _ as e -> e
          | Ok () -> (unseal (Bytes.unsafe_to_string blob) :> (string, _) result)
        end
end
