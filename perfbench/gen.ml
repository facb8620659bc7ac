(* Inputs: the preloaded dataset and one endless seeded operation stream
   per client connection.  The same seed always yields the same streams,
   so the traced in-process replay sees exactly the operations the
   closed-loop run sent over the wire. *)

module Rng = Siri_core.Rng
module Kv = Siri_core.Kv
module Zipf = Siri_workload.Zipf

(* 100k preloaded keys, even key numbers only: odd numbers are the
   guaranteed-absent keys of the negative-lookup path. *)
let preload_keys = 100_000
let value_len = 60
let batch_puts = 16
let prove_keys = 16
let scan_window = 256
let absent_share = 0.10

let key n = Printf.sprintf "key%08d" n

(* Preloaded key [i] is key number [2i]. *)
let preload_key i = key (2 * i)

let pad rng prefix =
  let n = value_len - String.length prefix in
  if n <= 0 then prefix else prefix ^ Rng.string_alnum rng n

(* A value names the preloaded index of its key, so a reader can check any
   value it meets belongs to the key it was read under, whichever writer
   produced it. *)
let preload_value rng i = pad rng (Printf.sprintf "p%06d-" i)

(* The dataset is the same for every seed.  POS-Tree node boundaries
   depend on the entries' bytes, so each dataset has its own tree shape,
   and one drawn per seed moved a read workload's median latency by up to
   40% from seed to seed; the seed varies the operation streams only. *)
let dataset_seed = 15

let preload () =
  let rng = Rng.create dataset_seed in
  List.init preload_keys (fun i -> (preload_key i, preload_value rng i))

let index_of_value v =
  (* "p<idx>-…" or "w<conn>.<seq>.<idx>-…" *)
  match String.index_opt v '-' with
  | None -> None
  | Some dash -> (
      let head = String.sub v 0 dash in
      match String.rindex_opt head '.' with
      | Some dot ->
          int_of_string_opt (String.sub head (dot + 1) (dash - dot - 1))
      | None ->
          if String.length head > 1 && head.[0] = 'p' then
            int_of_string_opt (String.sub head 1 (String.length head - 1))
          else None)

let value_matches_key i v = index_of_value v = Some i

type op =
  | Commit of { req_id : string; puts : (int * Kv.value) list }
      (** 16 puts over preloaded indexes; the last put of a key wins *)
  | Get of int  (** key number: even = preloaded, odd = absent *)
  | Prove of int  (** first preloaded index of 16 consecutive keys *)
  | Scan of int  (** first preloaded index of a 256-key window *)

let op_kind = function
  | Commit _ -> "commit"
  | Get _ -> "get"
  | Prove _ -> "prove"
  | Scan _ -> "scan"

let kinds = [ "commit"; "get"; "prove"; "scan" ]

type workload =
  | Ingest
      (** the write path alone: POS rebuild, SHA-256, store install, pack
          append, WAL frame + fsync, group fold; reads stay idle *)
  | Lookup_cold
      (** the cold read path: a reopened pack with an empty hot tier and no
          node cache, 10% absent keys for the negative-lookup walk *)
  | Prove_scan
      (** the memory-resident control for [Lookup_cold] (snapshot backend,
          so the pack is never read), and the only multiproof and scan
          load.  Read-only: siri_serve's store table is not safe against
          a commit that resizes it while a session thread reads, which
          refuses a read as "missing node" about once in 10^5 reads, so a
          writer beside these readers would make the failure count vary
          from run to run. *)

let workload_of_string = function
  | "ingest" -> Some Ingest
  | "lookup-cold" -> Some Lookup_cold
  | "prove-scan" -> Some Prove_scan
  | _ -> None

let workload_name = function
  | Ingest -> "ingest"
  | Lookup_cold -> "lookup-cold"
  | Prove_scan -> "prove-scan"

let backend = function
  | Ingest | Lookup_cold -> `Pack
  | Prove_scan -> `Snapshot

(* The operation whose latency the headline metrics report. *)
let primary = function
  | Ingest -> "commit"
  | Lookup_cold -> "get"
  | Prove_scan -> "prove"

(* Only [Ingest] writes; every value the read workloads see is exactly
   its preload value. *)
let writes w = w = Ingest

let connections = 2

(* A zipf rank is scattered over the key space by a fixed bijection
   (7919 is coprime with 100k), so the hot keys are not all neighbours in
   one leaf. *)
let scatter rank = (rank * 7919 + 12345) mod preload_keys

let zipf = lazy (Zipf.create ~n:preload_keys ~theta:0.9)

let zipf_index rng = scatter (Zipf.sample (Lazy.force zipf) rng)

let commit_op rng ~seed ~conn ~seq =
  let puts =
    List.init batch_puts (fun _ ->
        let i = zipf_index rng in
        (i, pad rng (Printf.sprintf "w%d.%d.%d-" conn seq i)))
  in
  (* Explicit per-connection request ids: unique in the run, so the
     server's dedup counter must stay 0. *)
  Commit { req_id = Printf.sprintf "s%d-c%d-%d" seed conn seq; puts }

let get_op rng =
  let i = Rng.int rng preload_keys in
  if Rng.float rng < absent_share then Get ((2 * i) + 1) else Get (2 * i)

(* [stream w ~seed ~conn] is connection [conn]'s endless operation source. *)
let stream w ~seed ~conn =
  let rng = Rng.create ((seed * 1_000_003) + (conn * 7919) + 11) in
  let seq = ref 0 in
  fun () ->
    let n = !seq in
    incr seq;
    match w with
    | Ingest -> commit_op rng ~seed ~conn ~seq:n
    | Lookup_cold -> get_op rng
    | Prove_scan ->
        (* the connections start out of phase: one proves while the
           other scans *)
        if (n + conn) mod 2 = 0 then
          Prove (min (zipf_index rng) (preload_keys - prove_keys))
        else Scan (Rng.int rng (preload_keys - scan_window + 1))

let prove_keys_of start = List.init prove_keys (fun j -> preload_key (start + j))

let scan_bounds start =
  (preload_key start, preload_key (start + scan_window))

let kv_ops puts = List.map (fun (i, v) -> Kv.Put (preload_key i, v)) puts
