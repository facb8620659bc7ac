open Siri_crypto
module Wire = Siri_codec.Wire
module Frame = Siri_codec.Frame

type t = {
  claims : (Kv.key * Kv.value option) list;
  nodes : string list;
}

let keys t = List.map fst t.claims
let find t k = List.assoc_opt k t.claims

let root_hash t =
  match t.nodes with
  | [] -> None
  | first :: _ -> Some (Hash.of_string first)

let size_bytes t =
  List.fold_left (fun acc n -> acc + String.length n) 0 t.nodes

let well_formed t =
  let rec strictly_sorted = function
    | [] | [ _ ] -> true
    | (a, _) :: ((b, _) :: _ as rest) ->
        String.compare a b < 0 && strictly_sorted rest
  in
  strictly_sorted t.claims

(* --- traversal adapters --------------------------------------------------- *)

let recorder ~get =
  let seen = Hash.Table.create 16 in
  let acc = ref [] in
  let fetch h =
    match Hash.Table.find_opt seen h with
    | Some bytes -> bytes
    | None ->
        let bytes = get h in
        Hash.Table.add seen h bytes;
        acc := bytes :: !acc;
        bytes
  in
  (fetch, fun () -> List.rev !acc)

exception Rejected

let consumer nodes =
  let remaining = ref nodes in
  let memo = Hash.Table.create 16 in
  let fetch h =
    match Hash.Table.find_opt memo h with
    | Some bytes -> bytes
    | None -> (
        match !remaining with
        | [] -> raise Rejected
        | bytes :: rest ->
            if not (Hash.equal (Hash.of_string bytes) h) then raise Rejected;
            remaining := rest;
            Hash.Table.add memo h bytes;
            bytes)
  in
  (fetch, fun () -> !remaining = [])

(* --- tamper helpers ------------------------------------------------------- *)

let nth_mod t index =
  let n = List.length t.nodes in
  if n = 0 then invalid_arg "Multiproof: no nodes to tamper with";
  ((index mod n) + n) mod n

let flip_node t ~index ~pos =
  let i = nth_mod t index in
  { t with
    nodes =
      List.mapi
        (fun j bytes ->
          if j <> i then bytes
          else begin
            let b = Bytes.of_string (if bytes = "" then "x" else bytes) in
            let p = pos mod Bytes.length b in
            Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor 1));
            Bytes.to_string b
          end)
        t.nodes }

let drop_node t ~index =
  let i = nth_mod t index in
  { t with nodes = List.filteri (fun j _ -> j <> i) t.nodes }

let swap_nodes t ~i ~j =
  let a = nth_mod t i and b = nth_mod t j in
  let arr = Array.of_list t.nodes in
  let tmp = arr.(a) in
  arr.(a) <- arr.(b);
  arr.(b) <- tmp;
  { t with nodes = Array.to_list arr }

let set_claim t key value =
  { t with
    claims =
      List.map (fun (k, v) -> if String.equal k key then (k, value) else (k, v))
        t.claims }

let tamper t =
  match t.nodes with
  | [] -> (
      (* Same convention as {!Proof.tamper}: with no nodes to damage,
         corrupt the claims instead. *)
      match t.claims with
      | (k, _) :: _ -> set_claim t k (Some "tampered")
      | [] -> { t with claims = [ ("tampered", Some "tampered") ] })
  | _ :: _ -> flip_node t ~index:(List.length t.nodes - 1) ~pos:0

(* --- wire codec ------------------------------------------------------------ *)

let version = 1

let common_prefix_len a b =
  let n = min (String.length a) (String.length b) in
  let i = ref 0 in
  while !i < n && a.[!i] = b.[!i] do incr i done;
  !i

let encode t =
  let w = Wire.Writer.create ~capacity:(size_bytes t + 256) () in
  Wire.Writer.u8 w version;
  Wire.Writer.varint w (List.length t.claims);
  let first_value_at = Hashtbl.create 16 in
  let prev = ref "" in
  List.iteri
    (fun i (k, v) ->
      (* Front-coded key: length shared with the previous key + suffix. *)
      let lcp = common_prefix_len !prev k in
      Wire.Writer.varint w lcp;
      Wire.Writer.str w (String.sub k lcp (String.length k - lcp));
      prev := k;
      (match v with
      | None -> Wire.Writer.u8 w 0
      | Some value -> (
          match Hashtbl.find_opt first_value_at value with
          | Some j ->
              Wire.Writer.u8 w 2;
              Wire.Writer.varint w j
          | None ->
              Hashtbl.add first_value_at value i;
              Wire.Writer.u8 w 1;
              Wire.Writer.str w value)))
    t.claims;
  Wire.Writer.varint w (List.length t.nodes);
  List.iter (fun n -> Wire.Writer.str w n) t.nodes;
  Frame.encode (Wire.Writer.contents w)

let encoded_size t = String.length (encode t)

let parse_payload r =
  let malformed msg = Error (`Malformed msg) in
  if Wire.Reader.u8 r <> version then malformed "unknown multiproof version"
  else begin
    let n_claims = Wire.Reader.varint r in
    (* Each claim costs at least three payload bytes, so a count beyond the
       remaining length is garbage — reject before allocating for it. *)
    if n_claims > Wire.Reader.remaining r then malformed "claim count too large"
    else begin
    let claims = Array.make (max n_claims 1) ("", None) in
    let prev = ref "" in
    let ok = ref true and err = ref "" in
    let fail msg =
      ok := false;
      err := msg
    in
    (try
       for i = 0 to n_claims - 1 do
         if !ok then begin
           let lcp = Wire.Reader.varint r in
           if lcp > String.length !prev then fail "bad key prefix length"
           else begin
             let suffix = Wire.Reader.str r in
             let k = String.sub !prev 0 lcp ^ suffix in
             if i > 0 && String.compare !prev k >= 0 then
               fail "claims not strictly sorted"
             else begin
               prev := k;
               match Wire.Reader.u8 r with
               | 0 -> claims.(i) <- (k, None)
               | 1 -> claims.(i) <- (k, Some (Wire.Reader.str r))
               | 2 -> (
                   let j = Wire.Reader.varint r in
                   if j >= i then fail "forward value back-reference"
                   else
                     match snd claims.(j) with
                     | Some _ as v -> claims.(i) <- (k, v)
                     | None -> fail "back-reference to an absence claim")
               | _ -> fail "unknown claim tag"
             end
           end
         end
       done;
       if !ok then begin
         let n_nodes = Wire.Reader.varint r in
         let nodes = List.init n_nodes (fun _ -> Wire.Reader.str r) in
         if not (Wire.Reader.at_end r) then
           malformed "trailing bytes in multiproof payload"
         else Ok { claims = Array.to_list (Array.sub claims 0 n_claims); nodes }
       end
       else malformed !err
     with Wire.Reader.Truncated -> malformed "truncated multiproof payload")
    end
  end

let decode s = Result.bind (Frame.whole ~what:"multiproof" s) parse_payload
