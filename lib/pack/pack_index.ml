module Hash = Siri_crypto.Hash
module Wire = Siri_codec.Wire

let magic = "SIRIPACKIDX1"

type entry = { seg : int; off : int; len : int }

type t = {
  segments : (int * int) list;
  entries : (Hash.t * entry) list;
}

let of_table ~segments tbl =
  let entries = Hash.Table.fold (fun h e acc -> (h, e) :: acc) tbl [] in
  { segments = List.sort (fun (a, _) (b, _) -> compare a b) segments;
    entries = List.sort (fun (a, _) (b, _) -> Hash.compare a b) entries }

let encode t =
  Sealed.encode ~capacity:(64 + (48 * List.length t.entries)) ~magic (fun w ->
      Wire.Writer.varint w (List.length t.segments);
      List.iter
        (fun (id, covered) ->
          Wire.Writer.varint w id;
          Wire.Writer.varint w covered)
        t.segments;
      Wire.Writer.varint w (List.length t.entries);
      List.iter
        (fun (h, e) ->
          Wire.Writer.hash w h;
          Wire.Writer.varint w e.seg;
          Wire.Writer.varint w e.off;
          Wire.Writer.varint w e.len)
        t.entries)

(* Sortedness is re-verified on decode: an index that parses but is not
   canonical could only come from a foreign writer, and trusting it would
   break the rebuild-equivalence oracle. *)
let decode =
  Sealed.decode ~magic ~what:"index" (fun r ->
      let nsegs = Wire.Reader.varint r in
      let segments =
        List.init nsegs (fun _ ->
            let id = Wire.Reader.varint r in
            let covered = Wire.Reader.varint r in
            (id, covered))
      in
      let nentries = Wire.Reader.varint r in
      let entries =
        List.init nentries (fun _ ->
            let h = Wire.Reader.hash r in
            let seg = Wire.Reader.varint r in
            let off = Wire.Reader.varint r in
            let len = Wire.Reader.varint r in
            (h, { seg; off; len }))
      in
      let rec ascending cmp = function
        | a :: (b :: _ as rest) -> cmp a b < 0 && ascending cmp rest
        | _ -> true
      in
      if
        not
          (ascending (fun (a, _) (b, _) -> compare a b) segments
          && ascending (fun (a, _) (b, _) -> Hash.compare a b) entries)
      then failwith "non-canonical order";
      { segments; entries })

let save ?(sync = true) path t =
  let blob = encode t in
  Siri_io.Io.replace ~sync path (fun oc -> output_string oc blob)

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> None
  | blob -> ( match decode blob with Ok t -> Some t | Error _ -> None)
