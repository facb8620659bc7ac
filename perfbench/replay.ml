(* The traced run: the same generated operation stream, replayed on one
   thread against an in-process stack built exactly as siri_serve builds
   its own (POS-Tree with [Pos_tree.config ()], no pool, node and proof
   caches off, a wall-clock telemetry sink on the store, [Durable] with
   sync on and the workload's backend), with every call into a layer
   timed by [Tracer].  Each operation also goes through the wire codec
   both ways, as it would between a client and a session thread.  Half the
   operations, picked by a seeded coin, run with tracing off: comparing
   the two halves gives the tracing overhead. *)

module Durable = Siri_wal.Durable
module Engine = Siri_forkbase.Engine
module Generic = Siri_core.Generic
module Multiproof = Siri_core.Multiproof
module Proto = Siri_server.Proto
module Store = Siri_store.Store
module Telemetry = Siri_telemetry.Telemetry
module Pos_tree = Siri_pos.Pos_tree
module Hash = Siri_crypto.Hash

let config backend =
  Printf.sprintf
    "index=pos-tree(Pos_tree.config ()) pool=none cache_bytes=0 \
     proof_cache_bytes=0 sink=wall-clock durable.sync=true backend=%s"
    (Serve.backend_flag backend)

type acc = {
  traced : Stat.t;  (** op seconds, traced ops *)
  untraced : Stat.t;  (** op seconds, untraced ops *)
  self : float array;  (** summed over traced ops, per layer *)
  incl : float array;
  mutable unattributed : float;
  mutable n : int;  (** all ops, traced or not *)
  counts : (string, int) Hashtbl.t;  (** summed over all ops *)
}

let acc () =
  { traced = Stat.create ();
    untraced = Stat.create ();
    self = Array.make Tracer.count 0.0;
    incl = Array.make Tracer.count 0.0;
    unattributed = 0.0;
    n = 0;
    counts = Hashtbl.create 16 }

let count a name = Option.value ~default:0 (Hashtbl.find_opt a.counts name)
let bump a name by = Hashtbl.replace a.counts name (count a name + by)

(* Store-sink counters read around each operation. *)
let sink_counters =
  [ "store.get"; "store.get.cold"; "store.put"; "store.put_unique";
    "read.filter.skip"; "cache.node.hit"; "cache.node.miss"; "wal.fsync";
    "wal.append_bytes" ]

let hash_calls = Atomic.make 0
let hash_bytes = Atomic.make 0

type stack = { d : Durable.t; sink : Telemetry.sink; mutable view : Generic.t }

let open_stack ~backend ~dir =
  let sink = Telemetry.create ~clock:Unix.gettimeofday () in
  let store = Store.create ~cache_bytes:0 ~proof_cache_bytes:0 () in
  Store.set_sink store sink;
  let index =
    Tracer.generic (Pos_tree.generic (Pos_tree.empty store (Pos_tree.config ())))
  in
  match Durable.open_ ~sync:true ~backend ~dir ~empty_index:index () with
  | Error e ->
      failwith (Format.asprintf "traced open: %a" Siri_wal.Wal.pp_error e)
  | Ok d ->
      Option.iter
        (fun p ->
          Store.set_backend store
            (Some (Tracer.backend (Siri_pack.Pack.backend p))))
        (Durable.pack d);
      { d; sink; view = Engine.index (Durable.engine d) Load.branch }

let request_of = function
  | Gen.Commit { req_id; puts } ->
      Proto.Commit
        { req_id; branch = Load.branch; message = "perfbench"; ops = Gen.kv_ops puts }
  | Gen.Get n -> Proto.Get { branch = Load.branch; key = Gen.key n }
  | Gen.Prove start ->
      Proto.Prove_many { branch = Load.branch; keys = Gen.prove_keys_of start }
  | Gen.Scan start ->
      let lo, hi = Gen.scan_bounds start in
      Proto.Scan { branch = Load.branch; lo = Some lo; hi = Some hi; limit = 0 }

let unframe frame =
  match Proto.unseal frame with
  | Ok payload -> payload
  | Error _ -> failwith "traced run: frame did not unseal"

(* Both directions of the wire codec; returns the decoded message and the
   frame size. *)
let wire_request body =
  Tracer.span Tracer.Proto (fun () ->
      let frame = Proto.seal (Proto.encode_request { Proto.deadline_ms = 0; body }) in
      match Proto.decode_request (unframe frame) with
      | Ok r -> (r.Proto.body, String.length frame)
      | Error _ -> failwith "traced run: request did not decode")

let wire_response resp =
  Tracer.span Tracer.Proto (fun () ->
      let frame = Proto.seal (Proto.encode_response resp) in
      match Proto.decode_response (unframe frame) with
      | Ok r -> (r, String.length frame)
      | Error _ -> failwith "traced run: response did not decode")

(* What a session thread and the writer do for each request. *)
let serve st (body : Proto.req) =
  match body with
  | Proto.Commit { req_id; branch; ops; _ } ->
      let c =
        Tracer.span Tracer.Wal (fun () ->
            Durable.commit st.d ~branch ~message:("serve:" ^ req_id) ops)
      in
      st.view <- Engine.index (Durable.engine st.d) branch;
      [ Proto.Committed
          { req_id; commit = c.Engine.id; version = c.Engine.version; group_size = 1 } ]
  | Proto.Get { key; _ } -> [ Proto.Value (Generic.get st.view key) ]
  | Proto.Prove_many { keys; _ } ->
      let mp = Generic.prove_many st.view keys in
      let proof = Tracer.span Tracer.Multiproof (fun () -> Multiproof.encode mp) in
      [ Proto.Proof { root = st.view.Generic.root; proof } ]
  | Proto.Scan { lo; hi; _ } ->
      let rec take n acc seq =
        if n = 0 then (List.rev acc, Some seq)
        else
          match seq () with
          | Seq.Nil -> (List.rev acc, None)
          | Seq.Cons (e, tl) -> take (n - 1) (e :: acc) tl
      in
      let rec chunks seq acc =
        let entries, rest = take 256 [] seq in
        let acc = Proto.Entries { entries; more = rest <> None } :: acc in
        match rest with None -> List.rev acc | Some s -> chunks s acc
      in
      chunks (Generic.scan ?lo ?hi st.view) []
  | _ -> invalid_arg "traced run: unexpected request"

let exec st op =
  let body, req_bytes = wire_request (request_of op) in
  let replies = List.map wire_response (serve st body) in
  (List.map fst replies, List.fold_left (fun a (_, b) -> a + b) req_bytes replies)

(* The same answer checks as the closed loop, outside the timed op. *)
let check ~exact preload op replies =
  match (op, replies) with
  | Gen.Commit _, [ Proto.Committed _ ] -> Ok ()
  | Gen.Get n, [ Proto.Value v ] ->
      if Load.check_get ~exact preload n v then Ok () else Error "wrong get"
  | Gen.Prove start, [ Proto.Proof { root; proof } ] ->
      Load.check_proof ~exact preload start root proof
  | Gen.Scan start, chunks ->
      let entries =
        List.concat_map
          (function Proto.Entries { entries; _ } -> entries | _ -> [])
          chunks
      in
      if Load.check_scan ~exact preload start entries then Ok () else Error "wrong scan"
  | _ -> Error "unexpected reply"

(* Replay for [seconds]; returns the accumulators per op kind and the
   wrong answers seen. *)
let run ~w ~seed ~dir ~preload ~seconds =
  let st = open_stack ~backend:(Gen.backend w) ~dir in
  let exact = not (Gen.writes w) in
  let accs = Hashtbl.create 4 in
  let acc_of kind =
    match Hashtbl.find_opt accs kind with
    | Some a -> a
    | None ->
        let a = acc () in
        Hashtbl.add accs kind a;
        a
  in
  let counters () =
    ("hash.calls", Atomic.get hash_calls)
    :: ("hash.bytes", Atomic.get hash_bytes)
    :: ("pack.bytes_written", !Tracer.pack_bytes_written)
    :: List.map (fun c -> (c, Telemetry.counter st.sink c)) sink_counters
  in
  Hash.set_digest_observer
    (Some
       (fun len ->
         Atomic.incr hash_calls;
         ignore (Atomic.fetch_and_add hash_bytes len : int)));
  let streams =
    Array.init Gen.connections (fun conn -> Gen.stream w ~seed ~conn)
  in
  let coin = Siri_core.Rng.create (seed + 17) in
  let wrong = ref [] in
  let t_end = Host.now () +. seconds in
  let i = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Tracer.on := false;
      Hash.set_digest_observer None;
      Durable.close st.d)
    (fun () ->
      while Host.now () < t_end do
        let op = streams.(!i mod Gen.connections) () in
        incr i;
        let a = acc_of (Gen.op_kind op) in
        let traced = Siri_core.Rng.bool coin in
        let before = counters () in
        Tracer.on := traced;
        let (replies, bytes), tr = Tracer.op (fun () -> exec st op) in
        Tracer.on := false;
        List.iter2 (fun (c, v0) (_, v1) -> bump a c (v1 - v0)) before (counters ());
        bump a "proto.bytes" bytes;
        (match (op, replies) with
        | Gen.Prove _, [ Proto.Proof { proof; _ } ] -> (
            match Multiproof.decode proof with
            | Ok mp -> bump a "multiproof.nodes" (List.length mp.Multiproof.nodes)
            | Error _ -> ())
        | Gen.Get n, _ when n mod 2 = 1 -> bump a "get.absent" 1
        | _ -> ());
        (match check ~exact preload op replies with
        | Ok () -> ()
        | Error msg ->
            if List.length !wrong < 20 then
              wrong := Printf.sprintf "traced %s: %s" (Gen.op_kind op) msg :: !wrong);
        a.n <- a.n + 1;
        if traced then begin
          Stat.add a.traced tr.Tracer.op_s;
          Array.iteri (fun j s -> a.self.(j) <- a.self.(j) +. s) tr.Tracer.self_s;
          Array.iteri (fun j s -> a.incl.(j) <- a.incl.(j) +. s) tr.Tracer.incl_s;
          a.unattributed <- a.unattributed +. tr.Tracer.unattributed_s
        end
        else Stat.add a.untraced tr.Tracer.op_s
      done;
      (accs, List.rev !wrong))
