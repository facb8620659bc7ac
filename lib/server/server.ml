(* See server.mli for the design.  Threading model: one accept thread
   per listener and ONE writer thread on the main domain, one session
   thread per connection on a serving domain (or on the main domain at
   width 1).  Sessions never mutate the engine — they read off the
   atomically-published snapshot — so every shared structure on the read
   path has a single writer and many readers: the store's node table sits
   behind the store lock (a pack-backed store's table is empty and its
   reads take no store lock), the pack's offset index behind its own lock, its read descriptors in an [Atomic] map read with
   a positioned [pread], and the telemetry sink behind its mutex.  The
   store's writer cache is the writer thread's alone: its commits fill
   it and read it back, and sessions never touch it.  The writer answers
   every batch it drains, even when the commit path raises an exception
   nothing maps ([refuse_unanswered]). *)

module Hash = Siri_crypto.Hash
module Kv = Siri_core.Kv
module Generic = Siri_core.Generic
module Telemetry = Siri_telemetry.Telemetry
module Engine = Siri_forkbase.Engine
module Dir = Siri_shard.Dir
module Views = Siri_shard.Views
module Fault = Siri_fault.Fault

type addr = [ `Unix of string | `Tcp of int ]

type config = {
  max_queue : int;
  group_max : int;
  idempotency_cap : int;
  session_max : int;
}

let default_config =
  { max_queue = 256; group_max = 64; idempotency_cap = 4096; session_max = 64 }

(* A queued write batch.  The session thread blocks on [cond] until the
   writer (which always answers every drained batch, including at
   shutdown drain) fills [resp]. *)
type pending = {
  req_id : string;
  branch : string;
  client_message : string;
  ops : Kv.op list;
  deadline : float;  (* absolute gettimeofday; 0. = none *)
  pmu : Mutex.t;
  pcond : Condition.t;
  mutable resp : Proto.response option;
}

(* One published branch snapshot: the head and its read view.  Views
   are immutable — old roots, flat or per shard, stay valid like any
   other version — so sessions read them without a lock. *)
type snap = { head : Dir.head; view : Views.t }

(* A serving domain.  Lane 0 is the main domain: the accept thread
   creates its session threads directly, as at width 1.  Every other lane
   is a domain spawned when the first session is placed on it, running
   [lane_loop], which creates a session thread for each connection placed
   in [inbox]; at [closing] it joins those threads and returns, so the
   domain can be joined. *)
type lane = {
  lmu : Mutex.t;
  lcond : Condition.t;
  inbox : (int * Unix.file_descr) Queue.t;  (* guarded by [lmu] *)
  mutable closing : bool;  (* guarded by [lmu] *)
  mutable live : int;  (* open sessions placed here; guarded by [smu] *)
  mutable domain : unit Domain.t option;  (* guarded by [smu] *)
}

(* Minor heap of a spawned serving domain, in words (512 KiB on 64-bit).
   Session allocations are short-lived request and node buffers.  At two
   serving domains the default 256k words grew perfbench lookup-cold RSS
   by 20-22% over one domain, this size by ~6%, at the same latency. *)
let serving_minor_heap_words = 65536

type t = {
  config : config;
  dir : Dir.t;
  tsink : Telemetry.sink;
  snapshot : (string * snap) list Atomic.t;
  ro : bool Atomic.t;
  (* write queue; [running] and [paused] are guarded by [qmu] so the
     writer's exit condition and enqueue's refusal cannot race. *)
  qmu : Mutex.t;
  qcond : Condition.t;
  queue : pending Queue.t;
  mutable running : bool;
  mutable paused : bool;
  (* idempotency: req_id -> cached Committed response, FIFO-capped *)
  seen_mu : Mutex.t;
  seen : (string, Proto.response) Hashtbl.t;
  seen_order : string Queue.t;
  (* sessions registry, guarded by [smu] *)
  smu : Mutex.t;
  sessions : (int, Unix.file_descr) Hashtbl.t;
  lanes : lane array;  (* [Pool.recommended ()] of them; lane 0 is here *)
  mutable session_threads : Thread.t list;  (* lane 0's *)
  mutable next_session : int;
  mutable accept_threads : Thread.t list;
  mutable writer : Thread.t option;
  listeners : (addr * Unix.file_descr) list;
  wake : Unix.file_descr * Unix.file_descr;  (* pipe: [stop] -> accept loops *)
  mutable stopped : bool;  (* guarded by [smu]; stop idempotence *)
}

let listening t = List.map fst t.listeners
let sink t = t.tsink
let read_only t = Atomic.get t.ro

(* --- idempotency table ------------------------------------------------- *)

let seen_find t id =
  Mutex.lock t.seen_mu;
  let r = Hashtbl.find_opt t.seen id in
  Mutex.unlock t.seen_mu;
  r

let seen_record t id resp =
  Mutex.lock t.seen_mu;
  if not (Hashtbl.mem t.seen id) then begin
    Hashtbl.replace t.seen id resp;
    Queue.add id t.seen_order;
    while Queue.length t.seen_order > t.config.idempotency_cap do
      Hashtbl.remove t.seen (Queue.pop t.seen_order)
    done
  end;
  Mutex.unlock t.seen_mu

let serve_prefix = "serve:"

let ids_of_message msg =
  (* "serve:id1,id2,…" — the req_id charset excludes ',', so a plain
     split recovers exactly the ids that were folded into the commit. *)
  let p = serve_prefix in
  let pl = String.length p in
  if String.length msg > pl && String.sub msg 0 pl = p then
    String.split_on_char ',' (String.sub msg pl (String.length msg - pl))
    |> List.filter Proto.valid_req_id
  else []

(* Rebuild the dedup table from the commit history so a client retrying
   an unacked commit across a server crash still gets at-most-once.  Oldest
   first so the FIFO cap keeps the newest ids.  Sharded: a group commit
   lands (with its ids in the message) in every shard it touched, so the
   union over shard histories recovers every id; the cached ack carries
   that shard's commit id, which is an honest at-most-once answer even
   though the original ack named the composite. *)
let recover_seen t =
  Array.iter @@ fun eng ->
  List.iter
    (fun branch ->
      List.rev (Engine.history eng branch)
      |> List.iter (fun (c : Engine.commit) ->
             let ids = ids_of_message c.message in
             let n = List.length ids in
             List.iter
               (fun id ->
                 seen_record t id
                   (Proto.Committed
                      { req_id = id;
                        commit = c.id;
                        version = c.version;
                        group_size = n }))
               ids))
    (Engine.branches eng)

(* --- snapshot publication ---------------------------------------------- *)

let snap_of_branch t branch =
  { head = Dir.head t.dir ~branch; view = Dir.view t.dir ~branch }

let publish_branch t branch =
  let rest = List.remove_assoc branch (Atomic.get t.snapshot) in
  Atomic.set t.snapshot ((branch, snap_of_branch t branch) :: rest)

let publish_all t =
  Atomic.set t.snapshot
    (List.map (fun b -> (b, snap_of_branch t b)) (Dir.branches t.dir))

(* --- writer: group commit ---------------------------------------------- *)

let reply p resp =
  Mutex.lock p.pmu;
  p.resp <- Some resp;
  Condition.signal p.pcond;
  Mutex.unlock p.pmu

let err code detail = Proto.Err { code; detail }

let enter_read_only t =
  if not (Atomic.exchange t.ro true) then
    Telemetry.incr t.tsink "server.readonly.enter"

(* Fold one branch's batches into a single engine commit and ack them
   all with the same commit id.  Sharded: the fold becomes one composite
   commit — the group's concatenated ops are partitioned per shard and
   the shard commits run concurrently under this (single) writer, still
   one composite publication and one ack per batch.  Only a retryable
   handle is retried: a failed sharded fan-out may have applied some
   shards, and replaying its global sequence number is refused by the
   shard journals, so that handle is poisoned and degrades below. *)
let dir_commit t ~branch ~message ops =
  let commit () = Dir.commit t.dir ~branch ~message ops in
  match
    if Dir.retryable t.dir then Fault.with_retry ~attempts:3 ~sink:t.tsink commit
    else Fault.protect commit
  with
  | r -> (r :> (Dir.head, [ Fault.error | `Io of string ]) result)
  | exception Unix.Unix_error (e, fn, arg) ->
      Error (`Io (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e)))
  | exception Sys_error msg -> Error (`Io msg)

let commit_branch_group t branch (items : pending list) =
  let ids = List.map (fun p -> p.req_id) items in
  let message = serve_prefix ^ String.concat "," ids in
  let ops = List.concat_map (fun p -> p.ops) items in
  let n = List.length items in
  match dir_commit t ~branch ~message ops with
  | Ok { Dir.id = commit_id; version; _ } ->
      publish_branch t branch;
      Telemetry.incr t.tsink "server.commit.groups";
      Telemetry.incr t.tsink ~by:n "server.commit.acked";
      Telemetry.observe t.tsink "server.commit.group_size" (float_of_int n);
      List.iter
        (fun p ->
          let resp =
            Proto.Committed
              { req_id = p.req_id;
                commit = commit_id;
                version;
                group_size = n }
          in
          seen_record t p.req_id resp;
          reply p resp)
        items;
      Ok ()
  | Error (`Tampered h) ->
      enter_read_only t;
      let detail = "commit path: tampered node " ^ Hash.to_hex h in
      List.iter (fun p -> reply p (err Proto.Tampered detail)) items;
      Error `Stop_group
  | Error (`Missing _ as e) ->
      (* Unknown branches are refused at dispatch against the snapshot, so
         a missing hash here — even a bare Not_found surfacing as
         [`Missing Hash.null] from deep inside the index build — means
         the store lost a node the head still references.  That is an
         integrity failure, not a client error. *)
      enter_read_only t;
      let detail = "commit path: " ^ Fault.error_to_string e in
      List.iter (fun p -> reply p (err Proto.Tampered detail)) items;
      Error `Stop_group
  | Error (`Malformed msg) ->
      (* Every node on the commit path passed its content-hash check
         before it was decoded, so a [Failure] or [Invalid_argument]
         here is a bug in this build, not damaged storage: refused as
         read-only, not reported to clients as tampering. *)
      enter_read_only t;
      let detail = "commit path: internal error: " ^ msg in
      List.iter (fun p -> reply p (err Proto.Read_only detail)) items;
      Error `Stop_group
  | Error (`Io detail) ->
      (* The journal or the pack could not be written or made durable.
         The engine may be ahead of the disk and the durable handle
         refuses further writes, so the group is refused and nothing
         more is committed. *)
      enter_read_only t;
      let detail = "commit path: I/O error: " ^ detail in
      List.iter (fun p -> reply p (err Proto.Read_only detail)) items;
      Error `Stop_group
  | Error (`Transient _) when Dir.retryable t.dir ->
      (* still transient after the retry budget: refuse retryably, keep
         serving — the fault was not an integrity failure. *)
      List.iter
        (fun p -> reply p (err Proto.Overload "transient store failure"))
        items;
      Ok ()
  | Error (`Transient _ as e) ->
      (* a transient that interrupted the fan-out may have landed on some
         shards only; the in-memory handle can no longer be trusted to
         match the published composite *)
      enter_read_only t;
      let detail = "sharded commit failed: " ^ Fault.error_to_string e in
      List.iter (fun p -> reply p (err Proto.Tampered detail)) items;
      Error `Stop_group

let process_group t (batch : pending list) =
  let now = Unix.gettimeofday () in
  (* 1. deadline-expired batches are refused, never applied late *)
  let live, expired =
    List.partition (fun p -> p.deadline = 0.0 || p.deadline >= now) batch
  in
  List.iter
    (fun p ->
      Telemetry.incr t.tsink "server.timeout";
      reply p (err Proto.Timeout "deadline expired before commit"))
    expired;
  (* 2. read-only mode refuses everything *)
  if Atomic.get t.ro then
    List.iter (fun p -> reply p (err Proto.Read_only "server is read-only")) live
  else begin
    (* 3. dedup against history and within the batch *)
    let fresh = ref [] and dups = ref [] and in_batch = Hashtbl.create 8 in
    List.iter
      (fun p ->
        match seen_find t p.req_id with
        | Some resp ->
            Telemetry.incr t.tsink "server.commit.dedup";
            reply p resp
        | None ->
            if Hashtbl.mem in_batch p.req_id then begin
              Telemetry.incr t.tsink "server.commit.dedup";
              dups := p :: !dups
            end
            else begin
              Hashtbl.add in_batch p.req_id ();
              fresh := p :: !fresh
            end)
      live;
    let fresh = List.rev !fresh in
    (* 4. group by branch, preserving arrival order inside each group *)
    let groups : (string, pending list ref) Hashtbl.t = Hashtbl.create 4 in
    let order = ref [] in
    List.iter
      (fun p ->
        match Hashtbl.find_opt groups p.branch with
        | Some l -> l := p :: !l
        | None ->
            Hashtbl.add groups p.branch (ref [ p ]);
            order := p.branch :: !order)
      fresh;
    let rec run = function
      | [] -> ()
      | branch :: rest -> (
          let items = List.rev !(Hashtbl.find groups branch) in
          match commit_branch_group t branch items with
          | Ok () -> run rest
          | Error `Stop_group ->
              (* integrity failure: everything not yet committed is now
                 refused read-only *)
              List.iter
                (fun b ->
                  List.iter
                    (fun p -> reply p (err Proto.Read_only "server is read-only"))
                    (List.rev !(Hashtbl.find groups b)))
                rest)
    in
    run (List.rev !order);
    (* 5. in-batch duplicates ride on whatever the first occurrence got *)
    List.iter
      (fun p ->
        let resp =
          match seen_find t p.req_id with
          | Some resp -> resp
          | None -> err Proto.Overload "duplicate of a refused commit"
        in
        reply p resp)
      (List.rev !dups)
  end

(* The writer's handler of last resort.  An exception that neither
   [Fault.protect] nor [dir_commit]'s I/O mapping names leaves the engine
   in an unknown state: the batches not yet answered are refused, the
   server turns read-only, and the writer lives on to answer everything
   queued after, so no session waits forever and [stop] can join it. *)
let refuse_unanswered t batch e =
  enter_read_only t;
  let detail = "commit path: unexpected error: " ^ Printexc.to_string e in
  List.iter
    (fun p ->
      Mutex.lock p.pmu;
      let answered = Option.is_some p.resp in
      Mutex.unlock p.pmu;
      if not answered then reply p (err Proto.Read_only detail))
    batch

let writer_loop t =
  let rec loop () =
    Mutex.lock t.qmu;
    while t.running && (t.paused || Queue.is_empty t.queue) do
      Condition.wait t.qcond t.qmu
    done;
    if Queue.is_empty t.queue then begin
      (* only reachable with running = false: drain complete *)
      Mutex.unlock t.qmu
    end
    else begin
      let batch = ref [] in
      let n = ref 0 in
      let drain () =
        while (not (Queue.is_empty t.queue)) && !n < t.config.group_max do
          batch := Queue.pop t.queue :: !batch;
          Stdlib.incr n
        done
      in
      drain ();
      (* Adaptive grouping: a lone batch commits immediately — any
         grouping delay at queue depth 1 is pure added latency
         (BENCH_server.json had group mode *behind* single mode at one
         writer).  Only when the drain itself proves writers are
         arriving concurrently (2+ batches) is one bounded top-up pass
         worth it: yield so blocked writers can enqueue, then drain
         again, growing the fold toward group_max without ever waiting
         on a timer. *)
      if !n > 1 && !n < t.config.group_max && t.running then begin
        Mutex.unlock t.qmu;
        Thread.yield ();
        Mutex.lock t.qmu;
        drain ()
      end;
      Mutex.unlock t.qmu;
      let batch = List.rev !batch in
      (match process_group t batch with
      | () -> ()
      | exception e -> refuse_unanswered t batch e);
      loop ()
    end
  in
  loop ()

(* --- session read dispatch --------------------------------------------- *)

let snap_of t branch = List.assoc_opt branch (Atomic.get t.snapshot)

let dispatch_read t (body : Proto.req) : Proto.response =
  match body with
  | Proto.Ping -> Proto.Pong
  | Proto.Stats ->
      Proto.Stats_r (Telemetry.Json.to_string (Telemetry.to_json t.tsink))
  | Proto.Head { branch } -> (
      match snap_of t branch with
      | None -> err Proto.Unknown_branch branch
      | Some { head = { Dir.id; root; version }; _ } ->
          Proto.Head_r { id; root; version })
  | Proto.Get { branch; key } -> (
      match snap_of t branch with
      | None -> err Proto.Unknown_branch branch
      | Some s -> (
          match Fault.protect (fun () -> Views.get s.view key) with
          | Ok v -> Proto.Value v
          | Error e -> err Proto.Tampered (Fault.error_to_string e)))
  | Proto.Get_many { branch; keys } -> (
      match snap_of t branch with
      | None -> err Proto.Unknown_branch branch
      | Some s -> (
          match Fault.protect (fun () -> Views.get_many s.view keys) with
          | Ok vs -> Proto.Values vs
          | Error e -> err Proto.Tampered (Fault.error_to_string e)))
  | Proto.Prove_many { branch; keys } -> (
      match snap_of t branch with
      | None -> err Proto.Unknown_branch branch
      | Some s -> (
          (* sharded: a two-layer proof; [root] in the response is the
             composite the client verifies it against *)
          match Fault.protect (fun () -> Views.prove s.view keys) with
          | Ok proof -> Proto.Proof { root = s.head.Dir.root; proof }
          | Error e -> err Proto.Tampered (Fault.error_to_string e)))
  | Proto.Commit _ -> assert false  (* routed to the write path *)
  | Proto.Scan _ -> assert false  (* streamed by the session loop *)

let dispatch_commit t ~deadline ~req_id ~branch ~message ~ops : Proto.response =
  if not (Proto.valid_req_id req_id) then
    err Proto.Bad_request "invalid req_id (want [A-Za-z0-9._-]{1,64})"
  else if Atomic.get t.ro then err Proto.Read_only "server is read-only"
  else
    match seen_find t req_id with
    | Some resp ->
        Telemetry.incr t.tsink "server.commit.dedup";
        resp
    | None -> (
        match snap_of t branch with
        | None -> err Proto.Unknown_branch branch
        | Some _ -> (
            let p =
              { req_id;
                branch;
                client_message = message;
                ops;
                deadline;
                pmu = Mutex.create ();
                pcond = Condition.create ();
                resp = None }
            in
            Mutex.lock t.qmu;
            let verdict =
              if not t.running then `Stopping
              else if Queue.length t.queue >= t.config.max_queue then `Full
              else begin
                Queue.add p t.queue;
                Condition.signal t.qcond;
                `Queued
              end
            in
            Mutex.unlock t.qmu;
            match verdict with
            | `Stopping -> err Proto.Overload "server shutting down"
            | `Full ->
                Telemetry.incr t.tsink "server.overload";
                err Proto.Overload "commit queue full"
            | `Queued ->
                Mutex.lock p.pmu;
                while p.resp = None do
                  Condition.wait p.pcond p.pmu
                done;
                Mutex.unlock p.pmu;
                Option.get p.resp))

let op_name : Proto.req -> string = function
  | Proto.Ping -> "ping"
  | Proto.Head _ -> "head"
  | Proto.Get _ -> "get"
  | Proto.Get_many _ -> "get_many"
  | Proto.Prove_many _ -> "prove_many"
  | Proto.Commit _ -> "commit"
  | Proto.Stats -> "stats"
  | Proto.Scan _ -> "scan"

(* --- streaming scan ----------------------------------------------------- *)

(* A scan reply is the protocol's only multi-frame response: the lazy
   per-shard streams are pulled one bounded chunk at a time, so a huge
   range never materializes server-side, and the deadline is re-checked
   between chunks — a slow consumer cannot pin the session thread past
   its budget.  The snapshot view is immutable, so the stream stays
   consistent even while the writer publishes new heads. *)
let scan_chunk = 256

let session_scan t ~deadline ~branch ~lo ~hi ~limit send =
  Telemetry.incr t.tsink "server.req.scan";
  match snap_of t branch with
  | None -> send (err Proto.Unknown_branch branch)
  | Some s -> (
      match Fault.protect (fun () -> Views.scan ?lo ?hi s.view) with
      | exception Generic.Unsupported kind ->
          send
            (err Proto.Bad_request
               (Printf.sprintf "index kind %S does not support ordered scans"
                  kind))
      | Error e -> send (err Proto.Tampered (Fault.error_to_string e))
      | Ok seq ->
          let rec chunks seq sent =
            if deadline > 0.0 && Unix.gettimeofday () > deadline then begin
              Telemetry.incr t.tsink "server.timeout";
              send (err Proto.Timeout "deadline expired mid-scan")
            end
            else
              let budget =
                if limit > 0 then min scan_chunk (limit - sent) else scan_chunk
              in
              match
                (* pull up to [budget] entries; the tail stays lazy *)
                Fault.protect (fun () ->
                    let rec take n acc seq =
                      if n = 0 then (List.rev acc, Some seq)
                      else
                        match seq () with
                        | Seq.Nil -> (List.rev acc, None)
                        | Seq.Cons (e, tl) -> take (n - 1) (e :: acc) tl
                    in
                    take budget [] seq)
              with
              | Error e -> send (err Proto.Tampered (Fault.error_to_string e))
              | Ok (entries, rest) -> (
                  let sent = sent + List.length entries in
                  let exhausted =
                    rest = None || (limit > 0 && sent >= limit)
                  in
                  match
                    send (Proto.Entries { entries; more = not exhausted })
                  with
                  | `Stop -> `Stop
                  | `Cont ->
                      if exhausted then `Cont
                      else chunks (Option.get rest) sent)
          in
          chunks seq 0)

let handle_request t (r : Proto.request) : Proto.response =
  let name = op_name r.body in
  Telemetry.incr t.tsink ("server.req." ^ name);
  let t0 = Unix.gettimeofday () in
  let deadline =
    if r.deadline_ms <= 0 then 0.0
    else t0 +. (float_of_int r.deadline_ms /. 1000.0)
  in
  let resp =
    match r.body with
    | Proto.Commit { req_id; branch; message; ops } ->
        dispatch_commit t ~deadline ~req_id ~branch ~message ~ops
    | body ->
        if deadline > 0.0 && Unix.gettimeofday () > deadline then begin
          Telemetry.incr t.tsink "server.timeout";
          err Proto.Timeout "deadline expired"
        end
        else dispatch_read t body
  in
  Telemetry.observe t.tsink
    ("server.req." ^ name)
    (Unix.gettimeofday () -. t0);
  resp

(* --- session loop ------------------------------------------------------- *)

let end_session t lane sid fd =
  Mutex.lock t.smu;
  Hashtbl.remove t.sessions sid;
  lane.live <- lane.live - 1;
  Mutex.unlock t.smu;
  try Unix.close fd with Unix.Unix_error _ -> ()

(* The session thread owns its fd for writing; stop wakes a blocked read
   with [shutdown] (closing an fd another thread is selecting on does not
   reliably wake it — shutdown does, as a readable EOF). *)
let session_loop t lane sid fd =
  let send resp =
    match Proto.Io.write_frame fd (Proto.encode_response resp) with
    | Ok () -> `Cont
    | Error `Closed -> `Stop
  in
  let rec loop () =
    match Proto.Io.read_frame fd with
    | Error `Closed | Error `Timeout -> ()
    | Error (`Tampered d) ->
        (* refuse and hang up: a peer that sends damaged frames cannot be
           resynchronized, and nothing of the frame was parsed. *)
        Telemetry.incr t.tsink "server.refused.tampered";
        ignore (send (err Proto.Tampered d))
    | Error (`Malformed d) ->
        Telemetry.incr t.tsink "server.refused.malformed";
        ignore (send (err Proto.Bad_request d))
    | Ok payload -> (
        match Proto.decode_request payload with
        | Error (`Malformed d) ->
            Telemetry.incr t.tsink "server.refused.malformed";
            ignore (send (err Proto.Bad_request d))
        | Ok { Proto.deadline_ms; body = Proto.Scan { branch; lo; hi; limit } }
          -> (
            (* streaming: many frames per request, so it cannot go
               through the one-response [handle_request] path *)
            let deadline =
              if deadline_ms <= 0 then 0.0
              else Unix.gettimeofday () +. (float_of_int deadline_ms /. 1000.0)
            in
            let verdict =
              try session_scan t ~deadline ~branch ~lo ~hi ~limit send
              with e -> send (err Proto.Bad_request (Printexc.to_string e))
            in
            match verdict with `Cont -> loop () | `Stop -> ())
        | Ok req -> (
            let resp =
              try handle_request t req
              with e ->
                (* last-ditch: no exception may kill the session thread
                   silently or escape to the accept loop *)
                err Proto.Bad_request (Printexc.to_string e)
            in
            match send resp with `Cont -> loop () | `Stop -> ()))
  in
  (try loop () with _ -> ());
  end_session t lane sid fd

(* Runs on a serving domain: turn placed connections into session
   threads, and at [closing] join them all, so [stop] can join the domain
   itself and repeated start/stop cycles never leak a domain. *)
let lane_loop t lane () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = serving_minor_heap_words };
  let rec loop threads =
    Mutex.lock lane.lmu;
    while Queue.is_empty lane.inbox && not lane.closing do
      Condition.wait lane.lcond lane.lmu
    done;
    match Queue.take_opt lane.inbox with
    | Some (sid, fd) -> (
        Mutex.unlock lane.lmu;
        match Thread.create (session_loop t lane sid) fd with
        | th -> loop (th :: threads)
        | exception _ ->
            end_session t lane sid fd;
            loop threads)
    | None ->
        Mutex.unlock lane.lmu;
        List.iter Thread.join threads
  in
  loop []

(* Called with [smu] held.  A new session goes to the serving domain with
   the fewest open sessions, so concurrent connections spread over the
   domains instead of piling onto one.  A lane's domain is spawned on its
   first session; if none can be spawned, the session runs here. *)
let place t sid fd =
  let lane =
    Array.fold_left
      (fun best l -> if l.live < best.live then l else best)
      t.lanes.(0) t.lanes
  in
  let lane =
    if lane == t.lanes.(0) || lane.domain <> None then lane
    else
      match Domain.spawn (lane_loop t lane) with
      | d ->
          lane.domain <- Some d;
          lane
      | exception Failure _ -> t.lanes.(0)
  in
  lane.live <- lane.live + 1;
  if lane == t.lanes.(0) then
    t.session_threads <-
      Thread.create (session_loop t lane sid) fd :: t.session_threads
  else begin
    Mutex.lock lane.lmu;
    Queue.add (sid, fd) lane.inbox;
    Condition.signal lane.lcond;
    Mutex.unlock lane.lmu
  end

let accept_loop t lfd =
  (* [stop] wakes the select through the [wake] pipe: closing a listener
     another thread is selecting on does not reliably wake it *)
  let wake = fst t.wake in
  let rec loop () =
    match Unix.select [ lfd; wake ] [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | ready, _, _ when List.mem wake ready -> ()
    | _ -> (
        match Unix.accept lfd with
        | exception Unix.Unix_error _ -> loop ()
        | fd, _ ->
            Mutex.lock t.smu;
            let over = Hashtbl.length t.sessions >= t.config.session_max in
            if over || t.stopped then begin
              Mutex.unlock t.smu;
              Telemetry.incr t.tsink "server.session.reject";
              ignore
                (Proto.Io.write_frame fd
                   (Proto.encode_response
                      (err Proto.Overload "too many sessions")));
              (try Unix.close fd with Unix.Unix_error _ -> ())
            end
            else begin
              let sid = t.next_session in
              t.next_session <- sid + 1;
              Hashtbl.replace t.sessions sid fd;
              Telemetry.incr t.tsink "server.sessions";
              place t sid fd;
              Mutex.unlock t.smu
            end;
            loop ())
  in
  try loop () with _ -> ()

(* --- lifecycle ---------------------------------------------------------- *)

(* A SIGKILLed server leaves its socket file behind and the next bind
   fails EADDRINUSE.  Probe first: if nothing answers, the file is a
   corpse and safe to unlink; if something accepts, a live server owns
   the path and the bind must fail. *)
let reclaim_stale_unix_socket path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let alive =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) -> false
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if not alive then try Unix.unlink path with Unix.Unix_error _ -> ()
  end

let bind_addr (a : addr) : addr * Unix.file_descr =
  match a with
  | `Unix path ->
      reclaim_stale_unix_socket path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.bind fd (Unix.ADDR_UNIX path);
         Unix.listen fd 64
       with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
      (`Unix path, fd)
  | `Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.setsockopt fd Unix.SO_REUSEADDR true;
         Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
         Unix.listen fd 64
       with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
      let port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      (`Tcp port, fd)

let start ?(config = default_config) ~dir ~listen () =
  let tsink = Dir.sink dir in
  let listeners = List.map bind_addr listen in
  let width = Siri_parallel.Pool.recommended () in
  let t =
    { config;
      dir;
      tsink;
      snapshot = Atomic.make [];
      ro = Atomic.make false;
      qmu = Mutex.create ();
      qcond = Condition.create ();
      queue = Queue.create ();
      running = true;
      paused = false;
      seen_mu = Mutex.create ();
      seen = Hashtbl.create 256;
      seen_order = Queue.create ();
      smu = Mutex.create ();
      sessions = Hashtbl.create 16;
      lanes =
        Array.init width (fun _ ->
            { lmu = Mutex.create ();
              lcond = Condition.create ();
              inbox = Queue.create ();
              closing = false;
              live = 0;
              domain = None });
      session_threads = [];
      next_session = 0;
      accept_threads = [];
      writer = None;
      listeners;
      wake = Unix.pipe ~cloexec:true ();
      stopped = false }
  in
  publish_all t;
  recover_seen t (Dir.engines dir);
  t.writer <- Some (Thread.create writer_loop t);
  t.accept_threads <-
    List.map (fun (_, lfd) -> Thread.create (accept_loop t) lfd) listeners;
  t

let pause_writer t =
  Mutex.lock t.qmu;
  t.paused <- true;
  Mutex.unlock t.qmu

let resume_writer t =
  Mutex.lock t.qmu;
  t.paused <- false;
  Condition.broadcast t.qcond;
  Mutex.unlock t.qmu

let queue_length t =
  Mutex.lock t.qmu;
  let n = Queue.length t.queue in
  Mutex.unlock t.qmu;
  n

let stop t =
  let first =
    Mutex.lock t.smu;
    let f = not t.stopped in
    t.stopped <- true;
    Mutex.unlock t.smu;
    f
  in
  if first then begin
    (* 1. refuse new writes, wake the writer and let it drain the queue *)
    Mutex.lock t.qmu;
    t.running <- false;
    t.paused <- false;
    Condition.broadcast t.qcond;
    Mutex.unlock t.qmu;
    (match t.writer with Some th -> Thread.join th | None -> ());
    (* 2. retire the accept loops: the byte stays in the pipe, so every
       listener's loop sees it *)
    ignore (Unix.write_substring (snd t.wake) "x" 0 1 : int);
    List.iter Thread.join t.accept_threads;
    Unix.close (fst t.wake);
    Unix.close (snd t.wake);
    List.iter
      (fun ((a : addr), lfd) ->
        (try Unix.close lfd with Unix.Unix_error _ -> ());
        match a with
        | `Unix path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
        | `Tcp _ -> ())
      t.listeners;
    (* 3. wake blocked session reads and join the session threads: the
       serving domains join their own, then the domains are joined *)
    Mutex.lock t.smu;
    Hashtbl.iter
      (fun _ fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      t.sessions;
    let threads = t.session_threads in
    t.session_threads <- [];
    Mutex.unlock t.smu;
    List.iter Thread.join threads;
    Array.iter
      (fun l ->
        Mutex.lock l.lmu;
        l.closing <- true;
        Condition.signal l.lcond;
        Mutex.unlock l.lmu)
      t.lanes;
    Array.iter
      (fun l ->
        Option.iter Domain.join l.domain;
        l.domain <- None)
      t.lanes;
    (* 4. flush and close the journal(s) *)
    Dir.close t.dir
  end
