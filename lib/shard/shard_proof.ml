module Kv = Siri_core.Kv
module Hash = Siri_crypto.Hash
module Generic = Siri_core.Generic
module Multiproof = Siri_core.Multiproof
module Wire = Siri_codec.Wire
module Frame = Siri_codec.Frame

type t = {
  spec : Partition.t;
  roots : Hash.t array;
  parts : (int * Multiproof.t) list;
}

let prove ~views spec keys =
  let roots = Array.map (fun (v : Generic.t) -> v.Generic.root) views in
  let parts =
    List.map
      (fun (i, ks) -> (i, Generic.prove_many views.(i) ks))
      (Partition.split_keys spec keys)
  in
  { spec; roots; parts }

let composite t = Composite.root t.spec t.roots

let claims t =
  List.concat_map (fun (_, mp) -> mp.Multiproof.claims) t.parts
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let verify ~verifier ~composite:trusted t =
  Array.length t.roots = t.spec.Partition.shards
  && Hash.equal (composite t) trusted
  && (* part list well-formed: strictly ascending, in range *)
  (let rec ordered prev = function
     | [] -> true
     | (i, _) :: rest ->
         i > prev && i < t.spec.Partition.shards && ordered i rest
   in
   ordered (-1) t.parts)
  && List.for_all
       (fun (i, mp) ->
         (* Every claim must live in the shard the (authenticated) spec
            routes it to — otherwise an absence could be "proven"
            against whichever shard happens to be empty. *)
         List.for_all
           (fun (k, _) -> Partition.shard_of_key t.spec k = i)
           mp.Multiproof.claims
         && Generic.verify_many verifier ~root:t.roots.(i) mp)
       t.parts

(* --- wire codec ------------------------------------------------------------ *)

(* Leading payload byte.  A flat multiproof payload starts with its
   version byte (1), so 'S' keeps the two self-describing on a shared
   transport. *)
let version = Char.code 'S'

let encode t =
  let w = Wire.Writer.create ~capacity:1024 () in
  Wire.Writer.u8 w version;
  Wire.Writer.u8 w
    (match t.spec.Partition.scheme with Partition.Hash -> 0 | Partition.Range -> 1);
  Wire.Writer.varint w t.spec.Partition.shards;
  Array.iter (fun r -> Wire.Writer.hash w r) t.roots;
  Wire.Writer.varint w (List.length t.parts);
  List.iter
    (fun (i, mp) ->
      Wire.Writer.varint w i;
      Wire.Writer.str w (Multiproof.encode mp))
    t.parts;
  Frame.encode (Wire.Writer.contents w)

let parse_payload r =
  let malformed msg = Error (`Malformed msg) in
  try
    if Wire.Reader.u8 r <> version then
      malformed "unknown sharded-proof version"
    else begin
      let scheme =
        match Wire.Reader.u8 r with
        | 0 -> Ok Partition.Hash
        | 1 -> Ok Partition.Range
        | _ -> Error "unknown partition scheme"
      in
      match scheme with
      | Error msg -> malformed msg
      | Ok scheme -> (
          let shards = Wire.Reader.varint r in
          if shards < 1 || shards > Partition.max_shards then
            malformed "shard count out of range"
          else begin
            let spec = Partition.make scheme ~shards in
            let roots = Array.init shards (fun _ -> Wire.Reader.hash r) in
            let n_parts = Wire.Reader.varint r in
            if n_parts > shards then malformed "more parts than shards"
            else begin
              let rec read_parts prev k acc =
                if k = 0 then Ok (List.rev acc)
                else begin
                  let i = Wire.Reader.varint r in
                  if i <= prev || i >= shards then
                    Error (`Malformed "part shards not strictly ascending")
                  else
                    match Multiproof.decode (Wire.Reader.str r) with
                    | Error (`Tampered msg) ->
                        Error (`Tampered ("shard part: " ^ msg))
                    | Error (`Malformed msg) ->
                        Error (`Malformed ("shard part: " ^ msg))
                    | Ok mp -> read_parts i (k - 1) ((i, mp) :: acc)
                end
              in
              match read_parts (-1) n_parts [] with
              | Error _ as e -> e
              | Ok parts ->
                  if not (Wire.Reader.at_end r) then
                    malformed "trailing bytes in sharded proof payload"
                  else Ok { spec; roots; parts }
            end
          end)
        end
  with Wire.Reader.Truncated -> malformed "truncated sharded proof payload"

let decode s = Result.bind (Frame.whole ~what:"sharded proof" s) parse_payload

let is_encoded s =
  String.length s > Frame.header_len
  && Char.code s.[Frame.header_len] = version
  && Result.is_ok (Frame.whole ~what:"sharded proof" s)
