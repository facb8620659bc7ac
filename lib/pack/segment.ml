module Hash = Siri_crypto.Hash
module Wire = Siri_codec.Wire

let magic = "SIRIPACKSEG3"

(* The previous layouts, refused by name — there is no second reader:
   SEG1 framed each record as a WAL frame whose digest covered the node
   bytes too; SEG2 copied every child hash into the head. *)
let retired_magics = [ "SIRIPACKSEG1"; "SIRIPACKSEG2" ]

let header_len = 4 + Hash.size

let filename id = Printf.sprintf "seg-%06d.pack" id

let id_of_filename name =
  let plen = 4 and slen = 5 in
  if String.length name > plen + slen
     && String.sub name 0 plen = "seg-"
     && Filename.check_suffix name ".pack"
  then
    let digits = String.sub name plen (String.length name - plen - slen) in
    if String.for_all (fun c -> c >= '0' && c <= '9') digits then
      int_of_string_opt digits
    else None
  else None

(* Only a prefix of the magic may be short: a torn creation.  Short
   garbage is refused like a wrong magic. *)
let check_magic prefix =
  let found = String.sub prefix 0 (min (String.length prefix) (String.length magic)) in
  if String.starts_with ~prefix:found magic then Ok ()
  else if List.mem found retired_magics then
      Error
        (Printf.sprintf "unsupported segment format %s (this build reads %s)"
           found magic)
    else Error "bad segment magic"

(* The head digest covers the length and the head only; the node bytes
   are already bound by [h], which the caller computed when it stored the
   node — so an append hashes a few dozen bytes, never the node itself.
   A child is named by the offset of its hash in the node bytes, so the
   content hash binds each child hash and the digest binds where it
   sits.  Everything before the node bytes is written into one
   exact-size buffer. *)
let record_head h ~bytes_len child_offsets =
  let n = Array.length child_offsets in
  let offs_len =
    Array.fold_left
      (fun acc off ->
        if off < 0 || off > bytes_len - Hash.size then
          invalid_arg "Segment.record_head: child offset out of range";
        acc + Wire.Writer.varint_size off)
      0 child_offsets
  in
  let head_len = Hash.size + Wire.Writer.varint_size n + offs_len in
  if head_len + bytes_len > 0xFFFFFFFF then invalid_arg "Segment.record_head: too long";
  let b = Bytes.create (header_len + head_len) in
  Bytes.set_int32_be b 0 (Int32.of_int (head_len + bytes_len));
  let off = Wire.Exact.raw b header_len (Hash.to_raw h) in
  let off = Wire.Exact.varint b off n in
  ignore (Array.fold_left (Wire.Exact.varint b) off child_offsets);
  let digest =
    Hash.of_concat_sub (Bytes.sub_string b 0 4) (Bytes.unsafe_to_string b)
      ~off:header_len ~len:head_len
  in
  Bytes.blit_string (Hash.to_raw digest) 0 b 4 Hash.size;
  Bytes.unsafe_to_string b

let encode_record h bytes child_offsets =
  record_head h ~bytes_len:(String.length bytes) child_offsets ^ bytes

type record = {
  hash_off : int;
  n_children : int;
  children_off : int;
  bytes_off : int;
  bytes_len : int;
  next : int;
}

type step = Record of record | End | Torn of int | Corrupt

(* Allocation-light: both digests are computed over slices of [blob] and
   compared against the stored ones in place, and the children stay in
   the blob until {!children} asks for them. *)
let step ?limit blob ~pos =
  let total = match limit with Some l -> l | None -> String.length blob in
  let remaining = total - pos in
  if remaining = 0 then End
  else if remaining < header_len then Torn remaining
  else begin
    let len = Int32.to_int (String.get_int32_be blob pos) land 0xFFFFFFFF in
    if remaining - header_len < len then
      (* Torn mid-record — or a length flip on the final record, which is
         indistinguishable from a torn write and clamped the same way. *)
      Torn remaining
    else begin
      let body = pos + header_len in
      let stop = body + len in
      (* Locate the end of the head, noting the largest child offset.
         Nothing here is trusted yet: a bad varint, or a child count or
         offsets overrunning the record, is corruption. *)
      let head_end =
        match
          let r =
            Wire.Reader.of_substring blob ~off:(body + Hash.size)
              ~len:(len - Hash.size)
          in
          let n = Wire.Reader.varint r in
          if n > Wire.Reader.remaining r then raise Wire.Reader.Truncated;
          let offs = Wire.Reader.pos r in
          let top = ref (-1) in
          for _ = 1 to n do
            let off = Wire.Reader.varint r in
            if off > !top then top := off
          done;
          (n, offs, Wire.Reader.pos r, !top)
        with
        | exception (Wire.Reader.Truncated | Invalid_argument _) -> None
        | n, offs, vlen, top ->
            let head_end = body + Hash.size + vlen in
            (* Every child hash must lie inside the node bytes. *)
            if n > 0 && top > stop - head_end - Hash.size then None
            else Some (n, body + Hash.size + offs, head_end)
      in
      match head_end with
      | None -> Corrupt
      | Some (n, children_off, head_end) ->
          if
            not
              (Hash.equal_sub
                 (Hash.of_concat_sub (String.sub blob pos 4) blob ~off:body
                    ~len:(head_end - body))
                 blob ~off:(pos + 4))
          then Corrupt
          else begin
            let bytes_len = stop - head_end in
            if
              not
                (Hash.equal_sub
                   (Hash.of_substring blob ~off:head_end ~len:bytes_len)
                   blob ~off:body)
            then Corrupt
            else
              Record
                { hash_off = body;
                  n_children = n;
                  children_off;
                  bytes_off = head_end;
                  bytes_len;
                  next = stop }
          end
    end
  end

let hash blob r = Hash.of_raw (String.sub blob r.hash_off Hash.size)

(* The offsets were range-checked by [step]; each child hash is copied
   out of the verified node bytes. *)
let children blob r =
  let rd =
    Wire.Reader.of_substring blob ~off:r.children_off
      ~len:(r.bytes_off - r.children_off)
  in
  List.init r.n_children (fun _ ->
      let off = r.bytes_off + Wire.Reader.varint rd in
      Hash.of_raw (String.sub blob off Hash.size))

type scanned = {
  records : (Hash.t * int * int) list;
  length : int;
  clamped : int;
}

let scan ?(from = 0) blob =
  let rec go records pos =
    match step blob ~pos with
    | End -> Ok { records = List.rev records; length = from + pos; clamped = 0 }
    | Torn n -> Ok { records = List.rev records; length = from + pos; clamped = n }
    | Corrupt -> Error (`Tampered (from + pos))
    | Record r -> go ((hash blob r, from + pos, r.next - pos) :: records) r.next
  in
  if from > 0 then go [] 0
  else
    match check_magic blob with
    | Error _ -> Error (`Tampered 0)
    | Ok () when String.length blob < String.length magic ->
        (* A torn segment creation: clamp to empty; the opener rewrites
           the magic. *)
        Ok { records = []; length = 0; clamped = String.length blob }
    | Ok () -> go [] (String.length magic)
