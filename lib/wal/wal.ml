module Wire = Siri_codec.Wire
module Kv = Siri_core.Kv

let magic = "SIRIWAL1"

type record =
  | Commit of { branch : string; message : string; ops : Kv.op list }
  | Fork of { from : string; name : string }
  | Merge of { into : string; from : string; message : string; ops : Kv.op list }
  | Bulk of {
      branch : string;
      message : string;
      entries : (Kv.key * Kv.value) list;
    }

type error = Journal.error

let pp_error ppf = function
  | `Tampered off ->
      Format.fprintf ppf "journal corrupted at byte offset %d" off
  | `Malformed msg -> Format.fprintf ppf "malformed journal: %s" msg

(* --- payload encoding -------------------------------------------------------- *)

let tag_commit = 0x01
let tag_fork = 0x02
let tag_merge = 0x03
let tag_bulk = 0x04

let write_ops w ops =
  Wire.Writer.varint w (List.length ops);
  List.iter
    (fun op ->
      match op with
      | Kv.Put (k, v) ->
          Wire.Writer.u8 w 0;
          Wire.Writer.str w k;
          Wire.Writer.str w v
      | Kv.Del k ->
          Wire.Writer.u8 w 1;
          Wire.Writer.str w k)
    ops

let read_ops r =
  let n = Wire.Reader.varint r in
  List.init n (fun _ ->
      match Wire.Reader.u8 r with
      | 0 ->
          let k = Wire.Reader.str r in
          let v = Wire.Reader.str r in
          Kv.Put (k, v)
      | 1 -> Kv.Del (Wire.Reader.str r)
      | _ -> raise Wire.Reader.Truncated)

let encode_payload ~seq record =
  let w = Wire.Writer.create () in
  Wire.Writer.varint w seq;
  (match record with
  | Commit { branch; message; ops } ->
      Wire.Writer.u8 w tag_commit;
      Wire.Writer.str w branch;
      Wire.Writer.str w message;
      write_ops w ops
  | Fork { from; name } ->
      Wire.Writer.u8 w tag_fork;
      Wire.Writer.str w from;
      Wire.Writer.str w name
  | Merge { into; from; message; ops } ->
      Wire.Writer.u8 w tag_merge;
      Wire.Writer.str w into;
      Wire.Writer.str w from;
      Wire.Writer.str w message;
      write_ops w ops
  | Bulk { branch; message; entries } ->
      Wire.Writer.u8 w tag_bulk;
      Wire.Writer.str w branch;
      Wire.Writer.str w message;
      Wire.Writer.varint w (List.length entries);
      List.iter
        (fun (k, v) ->
          Wire.Writer.str w k;
          Wire.Writer.str w v)
        entries);
  Wire.Writer.contents w

let decode_payload r =
  let seq = Wire.Reader.varint r in
  let record =
    match Wire.Reader.u8 r with
    | t when t = tag_commit ->
        let branch = Wire.Reader.str r in
        let message = Wire.Reader.str r in
        Commit { branch; message; ops = read_ops r }
    | t when t = tag_fork ->
        let from = Wire.Reader.str r in
        let name = Wire.Reader.str r in
        Fork { from; name }
    | t when t = tag_merge ->
        let into = Wire.Reader.str r in
        let from = Wire.Reader.str r in
        let message = Wire.Reader.str r in
        Merge { into; from; message; ops = read_ops r }
    | t when t = tag_bulk ->
        let branch = Wire.Reader.str r in
        let message = Wire.Reader.str r in
        let n = Wire.Reader.varint r in
        let entries =
          List.init n (fun _ ->
              let k = Wire.Reader.str r in
              let v = Wire.Reader.str r in
              (k, v))
        in
        Bulk { branch; message; entries }
    | _ -> raise Wire.Reader.Truncated
  in
  (seq, record)

(* --- the journal ------------------------------------------------------------ *)

let codec =
  { Journal.magic;
    encode = (fun (seq, record) -> encode_payload ~seq record);
    decode = decode_payload }

let encode_record ~seq record =
  Siri_codec.Frame.encode (encode_payload ~seq record)

type 'a scan = 'a Journal.scan = {
  entries : 'a list;
  ends : int list;
  valid_prefix : int;
  clamped_bytes : int;
}

type scan_result = (int * record) scan

let scan = Journal.scan codec
