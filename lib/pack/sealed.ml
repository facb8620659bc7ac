module Hash = Siri_crypto.Hash
module Wire = Siri_codec.Wire

let encode ?capacity ~magic write =
  let w = Wire.Writer.create ?capacity () in
  Wire.Writer.raw w magic;
  write w;
  let body = Wire.Writer.contents w in
  body ^ Hash.to_raw (Hash.of_string body)

let decode ~magic ~what read blob =
  let malformed fmt = Printf.ksprintf (fun msg -> Error (`Malformed msg)) fmt in
  let blen = String.length blob in
  let mlen = String.length magic in
  let body_len = blen - Hash.size in
  if blen < mlen + Hash.size then malformed "%s too short" what
  else if String.sub blob 0 mlen <> magic then malformed "bad %s magic" what
  else if
    not (Hash.equal_sub (Hash.of_substring blob ~off:0 ~len:body_len) blob ~off:body_len)
  then malformed "%s checksum mismatch" what
  else
    match
      let r = Wire.Reader.of_substring blob ~off:mlen ~len:(body_len - mlen) in
      let v = read r in
      if not (Wire.Reader.at_end r) then failwith "trailing bytes";
      v
    with
    | v -> Ok v
    | exception Wire.Reader.Truncated -> malformed "%s truncated" what
    | exception Failure msg -> Error (`Malformed msg)
