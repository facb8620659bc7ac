module Frame = Siri_codec.Frame
module Wire = Siri_codec.Wire
module Io = Siri_io.Io

type error = [ `Tampered of int | `Malformed of string ]

type 'a codec = {
  magic : string;
  encode : 'a -> string;
  decode : Wire.Reader.t -> 'a;
}

type 'a scan = {
  entries : 'a list;
  ends : int list;
  valid_prefix : int;
  clamped_bytes : int;
}

let scan codec blob =
  let total = String.length blob and mlen = String.length codec.magic in
  if total < mlen && String.equal blob (String.sub codec.magic 0 total) then
    (* Torn while writing the very header: an empty committed prefix. *)
    Ok { entries = []; ends = []; valid_prefix = 0; clamped_bytes = total }
  else if total < mlen || not (String.equal (String.sub blob 0 mlen) codec.magic)
  then Error (`Malformed "bad magic")
  else
    let malformed pos =
      Error (`Malformed (Printf.sprintf "undecodable record at offset %d" pos))
    in
    let rec go pos entries ends =
      let stop clamped_bytes =
        Ok
          { entries = List.rev entries;
            ends = List.rev ends;
            valid_prefix = pos;
            clamped_bytes }
      in
      (* Frames are verified and decoded in place — the checksum is hashed
         over slices and the payload parsed through a windowed reader, so
         a scan allocates no per-frame payload copies. *)
      match Frame.step blob ~pos with
      | Frame.End -> stop 0
      | Frame.Torn clamped -> stop clamped
      | Frame.Corrupt -> Error (`Tampered pos)
      | Frame.Frame { payload_off; payload_len; next } -> (
          let r =
            Wire.Reader.of_substring blob ~off:payload_off ~len:payload_len
          in
          match codec.decode r with
          | v when Wire.Reader.at_end r -> go next (v :: entries) (next :: ends)
          | _ -> malformed pos
          | exception Wire.Reader.Truncated -> malformed pos)
    in
    go mlen [] []

let scan_file codec path =
  if Sys.file_exists path then
    scan codec (In_channel.with_open_bin path In_channel.input_all)
  else Ok { entries = []; ends = []; valid_prefix = 0; clamped_bytes = 0 }

type 'a t = {
  codec : 'a codec;
  path : string;
  sync : bool;
  mutable file : Io.file option;
}

let size path =
  match (Unix.stat path).Unix.st_size with
  | n -> n
  | exception Unix.Unix_error _ -> 0

(* An absent or empty journal is created with its magic and fsynced
   through to its directory, so the name survives a crash with a header
   that scans. *)
let open_file ~sync codec path =
  if size path = 0 then
    Io.create ~sync path (fun oc -> output_string oc codec.magic);
  Io.open_append path

let open_ ?(sync = true) ~valid_prefix codec path =
  if size path > valid_prefix then Io.truncate path valid_prefix;
  { codec; path; sync; file = Some (open_file ~sync codec path) }

let append t v =
  match t.file with
  | None -> invalid_arg ("Journal.append: " ^ t.path ^ " is closed")
  | Some f ->
      let frame = Frame.encode (t.codec.encode v) in
      Io.output f frame;
      Io.flush f;
      if t.sync then Io.fsync f;
      String.length frame

let write ?(sync = true) codec path vs =
  Io.replace ~sync path (fun oc ->
      output_string oc codec.magic;
      List.iter (fun v -> output_string oc (Frame.encode (codec.encode v))) vs)

let rewrite t vs =
  (* Every record in the old file is superseded: close without a sync. *)
  Option.iter Io.close t.file;
  t.file <- None;
  write ~sync:t.sync t.codec t.path vs;
  t.file <- Some (open_file ~sync:t.sync t.codec t.path)

let length t = size t.path

(* Nothing to push: every append flushed (and, under [sync], fsynced)
   its frame, and a rewrite or creation is fsynced by [Io]. *)
let close t =
  Option.iter Io.close t.file;
  t.file <- None
