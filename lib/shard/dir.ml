module Kv = Siri_core.Kv
module Hash = Siri_crypto.Hash
module Generic = Siri_core.Generic
module Durable = Siri_wal.Durable
module Engine = Siri_forkbase.Engine
module Store = Siri_store.Store

type t = Flat of Durable.t | Sharded of Sharded.t

(* Flat or sharded is decided here, once; [Durable.open_] and
   [Sharded.open_] each refuse the other's layout and any stated backend
   or spec that contradicts what is on disk. *)
let open_ ?sync ?backend ?runner ?spec ~dir ~empty_index () =
  if spec <> None || Sharded.exists dir then
    Sharded.open_ ?sync ?backend ?runner ?spec ~dir ~empty_index ()
    |> Result.map (fun s -> Sharded s)
  else
    Durable.open_ ?sync ?backend ~dir ~empty_index:(empty_index ()) ()
    |> Result.map (fun d -> Flat d)

let durables = function Flat d -> [| d |] | Sharded s -> Sharded.shards s
let engines t = Array.map Durable.engine (durables t)
let spec = function Flat _ -> None | Sharded s -> Some (Sharded.spec s)

let describe t =
  let backend =
    match Durable.backend (durables t).(0) with
    | `Snapshot -> "snapshot backend"
    | `Pack -> "pack backend"
  in
  match t with
  | Flat _ -> "flat, " ^ backend
  | Sharded s ->
      Printf.sprintf "sharded %s, generation %d, %s"
        (Partition.to_string (Sharded.spec s))
        (Sharded.generation s) backend

type recovery = {
  journals : Durable.recovery array;
  top_clamped_bytes : int;
  capped : int;
}

let recovery = function
  | Flat d ->
      { journals = [| Durable.recovery d |]; top_clamped_bytes = 0; capped = 0 }
  | Sharded s ->
      let r = Sharded.recovery s in
      { journals = r.Sharded.shards;
        top_clamped_bytes = r.Sharded.top_clamped_bytes;
        capped = r.Sharded.capped }

let clamped t =
  let r = recovery t in
  r.top_clamped_bytes > 0 || r.capped > 0
  || Array.exists (fun j -> j.Durable.clamped_bytes > 0) r.journals

type head = { id : Hash.t; root : Hash.t; version : int }

let of_commit (c : Engine.commit) =
  { id = c.Engine.id; root = c.Engine.index_root; version = c.Engine.version }

let of_sharded (h : Sharded.head) =
  { id = h.Sharded.composite;
    root = h.Sharded.composite;
    version = h.Sharded.seq }

let branches = function
  | Flat d -> Engine.branches (Durable.engine d)
  | Sharded s -> Sharded.branches s

let head t ~branch =
  match t with
  | Flat d -> of_commit (Engine.head (Durable.engine d) branch)
  | Sharded s -> of_sharded (Sharded.head s ~branch)

let view t ~branch =
  match t with
  | Flat d -> Views.flat (Engine.index (Durable.engine d) branch)
  | Sharded s -> Sharded.view s ~branch

let sink = function
  | Flat d -> Store.sink (Engine.store (Durable.engine d))
  | Sharded s -> Sharded.sink s

let commit t ~branch ~message ops =
  match t with
  | Flat d -> of_commit (Durable.commit d ~branch ~message ops)
  | Sharded s -> of_sharded (Sharded.commit s ~branch ~message ops)

let retryable = function Flat _ -> true | Sharded _ -> false

let checkpoint = function
  | Flat d -> Durable.checkpoint d
  | Sharded s -> Sharded.checkpoint s

let reshard t ~shards =
  match t with
  | Flat d ->
      Error
        (`Malformed (Durable.dir d ^ ": a flat directory cannot be resharded"))
  | Sharded s -> Sharded.reshard s ~shards |> Result.map (fun s -> Sharded s)

let close = function Flat d -> Durable.close d | Sharded s -> Sharded.close s
