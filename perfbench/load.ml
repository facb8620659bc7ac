(* The closed-loop load generator: one blocking [Client] per connection,
   each on its own thread, each sending its next request only after the
   previous reply arrived.  Every answer is checked, outside the timed
   interval; multiproofs, the costly check, are verified after the run so
   the client does not compete with the server for the CPUs meanwhile.
   Every [Probe.slice_s] the connections park between operations while
   the host-speed probe runs. *)

module Client = Siri_server.Client
module Generic = Siri_core.Generic
module Multiproof = Siri_core.Multiproof

let branch = "master"

type measured = {
  lat : Stat.t;  (** latency, s *)
  slice : Stat.t;  (** the probe slice the operation ran in *)
}

type conn = {
  by_kind : (string, measured) Hashtbl.t;  (** measured window only *)
  mutable attempted : int;
  mutable failed : int;
  mutable acks : (int * (int * string) list) list;  (** version, puts *)
  mutable proofs : (int * Siri_crypto.Hash.t * string) list;
      (** start, root, encoded proof: verified after the run *)
  mutable proof_bytes : int;
  mutable proof_keys : int;
}

type result = {
  conns : conn list;
  wrong : string list;  (** wrong answers, capped *)
  errors : string list;  (** refusals and transport failures, capped *)
  mark : (int * int) option;  (** server VmHWM KiB, dir bytes at the mark *)
  probes : float array;
      (** probe seconds at each slice boundary: slice [k] of the window lies
          between probes [k] and [k + 1] *)
  steal : int array;  (** [Host.steal_ticks] at each slice boundary *)
}

let of_kind r kind f =
  Stat.merge
    (List.filter_map
       (fun c -> Option.map f (Hashtbl.find_opt c.by_kind kind))
       r.conns)

let samples r kind = of_kind r kind (fun m -> m.lat)

let total f r = List.fold_left (fun acc c -> acc + f c) 0 r.conns

let measured r =
  total (fun c -> Hashtbl.fold (fun _ m n -> n + Stat.count m.lat) c.by_kind 0) r

let acked r = total (fun c -> List.length c.acks) r

(* Ticks stolen by the hypervisor during each slice. *)
let stolen r = Array.init (Array.length r.steal - 1) (fun k -> r.steal.(k + 1) - r.steal.(k))

(* The slices the normalised latencies are taken over: those with no more
   stolen time than the median slice, so every slice when the hypervisor
   took nothing, and never fewer than half.  A stolen tick stalls whatever
   operation is running for up to 10 ms, which the probe, a median of
   short runs, does not see: left in, a burst of steal multiplied the
   prove p99 by eight while its p50 moved 10%. *)
let clean r =
  let s = stolen r in
  let limit = Stat.median_of (Array.to_list (Array.map float_of_int s)) in
  Array.map (fun x -> float_of_int x <= limit) s

(* [kind] latencies in probe units, over the clean slices: each latency
   divided by the mean of the two probes bracketing the slice it ran in. *)
let normalised r kind =
  let out = Stat.create () in
  let keep = clean r in
  List.iter
    (fun c ->
      match Hashtbl.find_opt c.by_kind kind with
      | None -> ()
      | Some m ->
          Array.iter2
            (fun lat k ->
              let k = truncate k in
              if keep.(k) then
                Stat.add out (2.0 *. lat /. (r.probes.(k) +. r.probes.(k + 1))))
            (Stat.to_array m.lat) (Stat.to_array m.slice))
    r.conns;
  out

(* Parks the connections between operations while the probe runs. *)
type gate = {
  mu : Mutex.t;
  cond : Condition.t;
  mutable paused : bool;
  mutable parked : int;
  mutable active : int;  (** connections still in their loop *)
}

(* True when the connection had to park. *)
let pass g =
  Mutex.lock g.mu;
  let parked = g.paused in
  if parked then begin
    g.parked <- g.parked + 1;
    Condition.broadcast g.cond;
    while g.paused do Condition.wait g.cond g.mu done;
    g.parked <- g.parked - 1
  end;
  Mutex.unlock g.mu;
  parked

let leave g =
  Mutex.lock g.mu;
  g.active <- g.active - 1;
  Condition.broadcast g.cond;
  Mutex.unlock g.mu

(* Returns once every active connection is parked. *)
let pause g =
  Mutex.lock g.mu;
  g.paused <- true;
  while g.parked < g.active do Condition.wait g.cond g.mu done;
  Mutex.unlock g.mu

let resume g =
  Mutex.lock g.mu;
  g.paused <- false;
  Condition.broadcast g.cond;
  Mutex.unlock g.mu

let verifier =
  lazy
    (let store = Siri_store.Store.create ~cache_bytes:0 ~proof_cache_bytes:0 () in
     Siri_pos.Pos_tree.generic
       (Siri_pos.Pos_tree.empty store (Siri_pos.Pos_tree.config ())))

(* The checks.  A value read under preloaded index [i] must be its
   preload value or one written for [i]; in a workload with no writer
   ([exact]) it must be exactly the preload value. *)
let check_value ~exact preload i v =
  if exact then v = preload.(i) else Gen.value_matches_key i v

let check_get ~exact preload n v =
  match v with
  | None -> n mod 2 = 1
  | Some v -> n mod 2 = 0 && check_value ~exact preload (n / 2) v

let index_of_key k = int_of_string (String.sub k 3 8) / 2

let check_proof ~exact preload start root blob =
  match Multiproof.decode blob with
  | Error _ -> Error "multiproof does not decode"
  | Ok mp ->
      let keys = Gen.prove_keys_of start in
      if not (Generic.verify_many (Lazy.force verifier) ~root mp) then
        Error "multiproof fails verify_many against the returned root"
      else if
        List.length mp.Multiproof.claims = List.length keys
        && List.for_all2
             (fun k (k', c) ->
               k = k'
               &&
               match c with
               | Some v -> check_value ~exact preload (index_of_key k) v
               | None -> false)
             keys mp.Multiproof.claims
      then Ok ()
      else Error "multiproof claims do not match the requested keys"

let check_scan ~exact preload start entries =
  let lo, hi = Gen.scan_bounds start in
  let rec sorted = function
    | (a, _) :: ((b, _) :: _ as rest) -> a < b && sorted rest
    | _ -> true
  in
  List.length entries = Gen.scan_window
  && sorted entries
  && List.for_all
       (fun (k, v) ->
         k >= lo && k < hi
         && check_value ~exact preload (index_of_key k) v)
       entries

(* [run] drives [Gen.connections] closed loops for [warmup + seconds].
   [mark_at] is the size clock's fixed count: acked commits when the
   workload writes, completed gets otherwise.  When it is reached the
   server's VmHWM and the directory size are sampled once, so both are
   taken at a fixed amount of work whatever the server's speed. *)
let run ~w ~seed ~sock ~preload ~warmup ~seconds ~server_pid ~dir ~mark_at =
  let writes = Gen.writes w in
  let exact = not writes in
  let mu = Mutex.create () in
  let wrong = ref [] and errors = ref [] in
  let note l msg =
    Mutex.lock mu;
    if List.length !l < 20 then l := msg :: !l;
    Mutex.unlock mu
  in
  let clock = Atomic.make 0 and mark = ref None in
  let tick () =
    if Atomic.fetch_and_add clock 1 + 1 = mark_at then
      mark := Some (Host.vm_hwm_kb server_pid, Host.tree_bytes dir)
  in
  let t_measure = Host.now () +. warmup in
  let t_end = t_measure +. seconds in
  let gate =
    { mu = Mutex.create (); cond = Condition.create (); paused = false;
      parked = 0; active = Gen.connections }
  in
  (* -1 during the warm-up; the controller below advances it while every
     connection is parked, so an operation runs inside one slice *)
  let slice = Atomic.make (-1) in
  let drive i c =
    match Client.connect ~addr:(`Unix sock) () with
    | Error e -> note wrong ("connect: " ^ Client.error_to_string e)
    | Ok client ->
        let next = Gen.stream w ~seed ~conn:i in
        (* The probe evicts the server's working set from the caches, so
           the first operation after a pause, and the other connection's
           one queued behind it, run cold: leaving them out keeps the
           pauses out of the tail. *)
        let resumed = ref false in
        let timed kind f =
          c.attempted <- c.attempted + 1;
          let k = if !resumed then -1 else Atomic.get slice in
          let t0 = Host.now () in
          let r = f () in
          let t1 = Host.now () in
          (match r with
          | Ok _ when k >= 0 ->
              let m =
                match Hashtbl.find_opt c.by_kind kind with
                | Some m -> m
                | None ->
                    let m = { lat = Stat.create (); slice = Stat.create () } in
                    Hashtbl.add c.by_kind kind m;
                    m
              in
              Stat.add m.lat (t1 -. t0);
              Stat.add m.slice (float_of_int k)
          | Ok _ -> ()
          | Error e ->
              c.failed <- c.failed + 1;
              note errors (kind ^ ": " ^ Client.error_to_string e));
          r
        in
        while Host.now () < t_end do
          resumed := pass gate;
          let op = next () in
          let kind = Gen.op_kind op in
          match op with
          | Gen.Commit { req_id; puts } -> (
              match
                timed kind (fun () ->
                    Client.commit ~req_id client ~branch ~message:"perfbench"
                      (Gen.kv_ops puts))
              with
              | Ok (_, version, _) ->
                  c.acks <- (version, puts) :: c.acks;
                  tick ()
              | Error _ -> ())
          | Gen.Get n -> (
              match timed kind (fun () -> Client.get client ~branch (Gen.key n)) with
              | Ok v ->
                  if not (check_get ~exact preload n v) then
                    note wrong (Printf.sprintf "get %s: wrong answer" (Gen.key n));
                  if not writes then tick ()
              | Error _ -> ())
          | Gen.Prove start -> (
              match
                timed kind (fun () ->
                    Client.prove_many client ~branch (Gen.prove_keys_of start))
              with
              | Ok (root, blob) ->
                  c.proof_bytes <- c.proof_bytes + String.length blob;
                  c.proof_keys <- c.proof_keys + Gen.prove_keys;
                  c.proofs <- (start, root, blob) :: c.proofs;
                  if not writes then tick ()
              | Error _ -> ())
          | Gen.Scan start -> (
              let lo, hi = Gen.scan_bounds start in
              match timed kind (fun () -> Client.scan ~lo ~hi client ~branch) with
              | Ok entries ->
                  if not (check_scan ~exact preload start entries) then
                    note wrong (Printf.sprintf "scan @%d: wrong window" start);
                  if not writes then tick ()
              | Error _ -> ())
        done;
        Client.close client
  in
  let drive i c = Fun.protect ~finally:(fun () -> leave gate) (fun () -> drive i c) in
  let conns =
    List.init Gen.connections (fun _ ->
        { by_kind = Hashtbl.create 4; attempted = 0;
          failed = 0; acks = []; proofs = []; proof_bytes = 0; proof_keys = 0 })
  in
  let threads =
    List.mapi (fun i c -> Thread.create (fun () -> drive i c) ()) conns
  in
  let probes = ref [] and steal = ref [] in
  let probe () =
    pause gate;
    steal := Host.steal_ticks () :: !steal;
    probes := Probe.measure () :: !probes;
    Atomic.incr slice;
    resume gate
  in
  let sleep_until t =
    let d = t -. Host.now () in
    if d > 0.0 then Thread.delay d
  in
  sleep_until t_measure;
  probe ();
  let rec slices next =
    if next < t_end then begin
      sleep_until next;
      probe ();
      slices (next +. Probe.slice_s)
    end
  in
  slices (Host.now () +. Probe.slice_s);
  List.iter Thread.join threads;
  (* closes the last slice; every connection has left by now *)
  probe ();
  List.iter
    (fun c ->
      List.iter
        (fun (start, root, blob) ->
          match check_proof ~exact preload start root blob with
          | Ok () -> ()
          | Error msg -> note wrong (Printf.sprintf "prove @%d: %s" start msg))
        c.proofs;
      c.proofs <- [])
    conns;
  { conns; wrong = List.rev !wrong; errors = List.rev !errors;
    mark = !mark; probes = Array.of_list (List.rev !probes);
    steal = Array.of_list (List.rev !steal) }

(* The value(s) each written key must hold now: those put at the highest
   acked version.  Two batches folded into one group commit share a
   version and their order inside the group is the server's, so either
   batch's value is a correct answer there. *)
let expected_final r =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun c ->
      List.iter
        (fun (version, puts) ->
          (* the last put of a key inside one batch wins *)
          let last = Hashtbl.create 16 in
          List.iter (fun (i, v) -> Hashtbl.replace last i v) puts;
          Hashtbl.iter
            (fun i v ->
              match Hashtbl.find_opt tbl i with
              | Some (ver, _) when ver > version -> ()
              | Some (ver, vs) when ver = version ->
                  Hashtbl.replace tbl i (ver, v :: vs)
              | _ -> Hashtbl.replace tbl i (version, [ v ]))
            last)
        c.acks)
    r.conns;
  tbl

let with_client ~sock f =
  match Client.connect ~addr:(`Unix sock) () with
  | Error e -> Error ("connect: " ^ Client.error_to_string e)
  | Ok client ->
      Fun.protect ~finally:(fun () -> Client.close client) (fun () -> f client)

(* Final read-back of the first [sample] written keys (in key order):
   each must hold its value at the highest acked version. *)
let check_final ~sock ~sample r =
  let expected = expected_final r in
  let keys =
    Hashtbl.fold (fun i _ acc -> i :: acc) expected []
    |> List.sort compare
    |> List.filteri (fun j _ -> j < sample)
  in
  with_client ~sock (fun client ->
      Ok
        (List.filter_map
           (fun i ->
             let _, vs = Hashtbl.find expected i in
             match Client.get client ~branch (Gen.preload_key i) with
             | Ok (Some v) when List.mem v vs -> None
             | Ok _ ->
                 Some
                   (Printf.sprintf "final get %s: not the highest acked value"
                      (Gen.preload_key i))
             | Error e -> Some ("final get: " ^ Client.error_to_string e))
           keys))

(* The server's counters, from its Stats frame. *)
let server_counters ~sock =
  with_client ~sock (fun client ->
      match Client.stats client with
      | Error e -> Error ("stats: " ^ Client.error_to_string e)
      | Ok json -> Ok (Counters.of_stats_json json))
