module Kv = Siri_core.Kv
module Hash = Siri_crypto.Hash
module Generic = Siri_core.Generic
module Multiproof = Siri_core.Multiproof
module Store = Siri_store.Store
module Telemetry = Siri_telemetry.Telemetry

type t = Flat of Generic.t | Sharded of Partition.t * Generic.t array

let flat v = Flat v
let sharded spec views = Sharded (spec, views)
let parts = function Flat v -> [| v |] | Sharded (_, vs) -> vs

let root = function
  | Flat v -> v.Generic.root
  | Sharded (spec, vs) ->
      Composite.root spec (Array.map (fun (v : Generic.t) -> v.Generic.root) vs)

let get t key =
  match t with
  | Flat v -> Generic.get v key
  | Sharded (spec, vs) -> Generic.get vs.(Partition.shard_of_key spec key) key

let get_many t keys =
  match t with
  | Flat v -> v.Generic.get_many keys
  | Sharded (spec, vs) -> (
      match Partition.split_keys spec keys with
      | [] -> []
      | [ (i, _) ] -> vs.(i).Generic.get_many keys
      | groups ->
          (* One single-walk batch per touched shard, then reassemble in
             input order.  Duplicate keys are answered from the same
             shard, so a per-key table is enough. *)
          let found = Hashtbl.create (List.length keys) in
          List.iter
            (fun (i, ks) ->
              List.iter
                (fun (k, v) -> Hashtbl.replace found k v)
                (vs.(i).Generic.get_many ks))
            groups;
          List.map (fun k -> (k, Option.join (Hashtbl.find_opt found k))) keys)

(* --- ordered scans across shards -------------------------------------------

   Range scheme: [Partition.shard_of_key] is monotone in the key, so the
   shards holding [lo, hi) form a contiguous interval and concatenating
   their streams in shard order *is* global key order — a scan whose
   bounds land in one shard touches exactly that shard (the fanout the
   telemetry asserts).  Hash scheme: placement ignores order, so every
   shard contributes and the streams are k-way merged lazily.  Both paths
   keep the per-shard streams unforced beyond the entries the consumer
   actually demands (the merge holds one head per stream). *)

let merge_streams streams =
  let rec step nodes () =
    match nodes with
    | [] -> Seq.Nil
    | (hd0, tl0) :: rest ->
        (* Keys are disjoint across shards (each key routes to exactly
           one), so a plain min by key is unambiguous. *)
        let (kmin, vmin), tlmin, others =
          List.fold_left
            (fun (bhd, btl, others) (hd, tl) ->
              if String.compare (fst hd) (fst bhd) < 0 then
                (hd, tl, (bhd, btl) :: others)
              else (bhd, btl, (hd, tl) :: others))
            (hd0, tl0, []) rest
        in
        Seq.Cons
          ( (kmin, vmin),
            fun () ->
              match tlmin () with
              | Seq.Nil -> step others ()
              | Seq.Cons (hd, tl) -> step ((hd, tl) :: others) () )
  in
  fun () ->
    step
      (List.filter_map
         (fun s ->
           match s () with Seq.Nil -> None | Seq.Cons (hd, tl) -> Some (hd, tl))
         streams)
      ()

let scan ?lo ?hi t =
  match t with
  | Flat v -> Generic.scan ?lo ?hi v
  | Sharded (spec, vs) -> (
      let sink = Store.sink vs.(0).Generic.store in
      Telemetry.incr sink "shard.scan";
      match Partition.shard_interval spec ~lo ~hi with
      | None -> Seq.empty
      | Some (first, last) ->
          let fanout = last - first + 1 in
          Telemetry.incr sink ~by:fanout "shard.scan.fanout";
          let stream i = vs.(i).Generic.scan ~lo ~hi in
          if fanout = 1 then stream first
          else (
            match spec.Partition.scheme with
            | Partition.Range ->
                (* Contiguous interval, shard order = key order: lazy
                   concat, each stream forced only when its predecessor
                   is drained. *)
                let rec concat i () =
                  if i > last then Seq.Nil
                  else Seq.append (stream i) (concat (i + 1)) ()
                in
                concat first
            | Partition.Hash ->
                merge_streams (List.init fanout (fun i -> stream (first + i)))))

let prove t keys =
  match t with
  | Flat v -> Multiproof.encode (Generic.prove_many v keys)
  | Sharded (spec, views) ->
      Shard_proof.encode (Shard_proof.prove ~views spec keys)

(* --- proof blobs ------------------------------------------------------- *)

type proof = Flat_proof of Multiproof.t | Sharded_proof of Shard_proof.t

let decode_proof blob =
  if Shard_proof.is_encoded blob then
    Result.map (fun sp -> Sharded_proof sp) (Shard_proof.decode blob)
  else Result.map (fun mp -> Flat_proof mp) (Multiproof.decode blob)

let proof_spec = function
  | Flat_proof _ -> None
  | Sharded_proof sp -> Some sp.Shard_proof.spec

let proof_claims = function
  | Flat_proof mp -> mp.Multiproof.claims
  | Sharded_proof sp -> Shard_proof.claims sp

let verify_proof ~verifier ~root = function
  | Flat_proof mp -> Generic.verify_many verifier ~root mp
  | Sharded_proof sp -> Shard_proof.verify ~verifier ~composite:root sp
