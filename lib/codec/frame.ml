module Hash = Siri_crypto.Hash

let header_len = 4 + Hash.size

let u32_be n =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xFF));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xFF));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xFF));
  Bytes.set b 3 (Char.chr (n land 0xFF));
  Bytes.unsafe_to_string b

let encode payload =
  let len = u32_be (String.length payload) in
  let digest = Hash.to_raw (Hash.of_concat len payload) in
  len ^ digest ^ payload

type step =
  | Frame of { payload_off : int; payload_len : int; next : int }
  | End
  | Torn of int
  | Corrupt

let step blob ~pos =
  let total = String.length blob in
  let remaining = total - pos in
  if remaining = 0 then End
  else if remaining < header_len then Torn remaining
  else begin
    let len =
      (Char.code blob.[pos] lsl 24)
      lor (Char.code blob.[pos + 1] lsl 16)
      lor (Char.code blob.[pos + 2] lsl 8)
      lor Char.code blob.[pos + 3]
    in
    if remaining - header_len < len then
      (* Torn mid-payload — or a length flip on the final frame, which is
         indistinguishable from a torn write and clamped the same way. *)
      Torn remaining
    else begin
      let len_bytes = String.sub blob pos 4 in
      let digest = Hash.of_raw (String.sub blob (pos + 4) Hash.size) in
      let payload_off = pos + header_len in
      if
        Hash.equal (Hash.of_concat_sub len_bytes blob ~off:payload_off ~len)
          digest
      then Frame { payload_off; payload_len = len; next = payload_off + len }
      else Corrupt
    end
  end

let whole ~what blob =
  match step blob ~pos:0 with
  | Frame { payload_off; payload_len; next } when next = String.length blob ->
      Ok (Wire.Reader.of_substring blob ~off:payload_off ~len:payload_len)
  | Frame _ -> Error (`Malformed ("trailing bytes after " ^ what ^ " frame"))
  | End -> Error (`Malformed ("empty " ^ what))
  | Torn _ -> Error (`Malformed ("torn " ^ what ^ " frame"))
  | Corrupt -> Error (`Tampered (what ^ " frame checksum mismatch"))
