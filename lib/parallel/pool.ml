(* Fixed-size domain pool.  See pool.mli for the determinism and memory
   model contract.

   The design is a single mutex-guarded task queue with a caller-helps
   discipline: [run] enqueues every task, wakes the workers, then the
   calling domain drains the queue alongside them and finally blocks on a
   condition until the outstanding count reaches zero.  Workers are
   spawned once in [create] and park in [Condition.wait] between batches,
   so a commit pays two lock round-trips per task, not a domain spawn. *)

type t = {
  width : int;  (* parallel width including the caller; >= 1 *)
  mutex : Mutex.t;
  nonempty : Condition.t;  (* signalled when tasks arrive or on shutdown *)
  drained : Condition.t;  (* signalled when [pending] reaches zero *)
  queue : (unit -> unit) Queue.t;
  mutable pending : int;  (* enqueued-but-unfinished task count *)
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

let domains t = if t.workers = [] then 1 else t.width

(* A task finished under the lock: decrement and wake the waiter. *)
let finish_one t =
  t.pending <- t.pending - 1;
  if t.pending = 0 then Condition.broadcast t.drained

let worker_loop t =
  let rec loop () =
    match Queue.take_opt t.queue with
    | Some task ->
        Mutex.unlock t.mutex;
        task ();
        Mutex.lock t.mutex;
        finish_one t;
        loop ()
    | None ->
        if t.stopping then Mutex.unlock t.mutex
        else begin
          Condition.wait t.nonempty t.mutex;
          loop ()
        end
  in
  Mutex.lock t.mutex;
  loop ()

(* Pools that are never shut down explicitly are joined at exit so worker
   domains do not outlive the program's at_exit phase. *)
let registry : t list ref = ref []
let registry_mutex = Mutex.create ()

let rec shutdown t =
  Mutex.lock t.mutex;
  let workers = t.workers in
  t.workers <- [];
  t.stopping <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  List.iter Domain.join workers;
  Mutex.lock registry_mutex;
  registry := List.filter (fun p -> p != t) !registry;
  Mutex.unlock registry_mutex

and shutdown_all () = List.iter shutdown !registry

let at_exit_installed = ref false

let recommended ?(cap = 8) () =
  let base =
    match Option.bind (Sys.getenv_opt "SIRI_DOMAINS") int_of_string_opt with
    | Some n -> n
    | None -> Domain.recommended_domain_count ()
  in
  max 1 (min cap base)

(* Widths beyond what the host can actually run in parallel buy queue
   traffic, not speed, so an explicit [~domains] request is clamped to
   the hardware.  SIRI_DOMAINS stays an explicit override —
   it replaces the hardware figure entirely, so CI on small hosts can
   still force real worker domains. *)
let host_limit () =
  match Option.bind (Sys.getenv_opt "SIRI_DOMAINS") int_of_string_opt with
  | Some n -> max 1 n
  | None -> max 1 (Domain.recommended_domain_count ())

let create ?domains () =
  let width =
    match domains with
    | Some n -> max 1 (min n (host_limit ()))
    | None -> recommended ()
  in
  let t =
    { width;
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      drained = Condition.create ();
      queue = Queue.create ();
      pending = 0;
      stopping = false;
      workers = [] }
  in
  if width > 1 then begin
    t.workers <- List.init (width - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
    Mutex.lock registry_mutex;
    registry := t :: !registry;
    if not !at_exit_installed then begin
      at_exit_installed := true;
      at_exit shutdown_all
    end;
    Mutex.unlock registry_mutex
  end;
  t

let sequential =
  { width = 1;
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    drained = Condition.create ();
    queue = Queue.create ();
    pending = 0;
    stopping = false;
    workers = [] }

let run t tasks =
  let n = Array.length tasks in
  if n = 0 then ()
  else if t.workers = [] || n = 1 then Array.iter (fun f -> f ()) tasks
  else begin
    (* First failure wins; the rest of the batch still runs so the pool
       is quiescent (and reusable) when we re-raise. *)
    let failure = Atomic.make None in
    let wrap f () =
      try f ()
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set failure None (Some (e, bt)))
    in
    Mutex.lock t.mutex;
    Array.iter (fun f -> Queue.add (wrap f) t.queue) tasks;
    t.pending <- t.pending + n;
    Condition.broadcast t.nonempty;
    (* Caller helps drain, then waits for stragglers. *)
    let rec help () =
      match Queue.take_opt t.queue with
      | Some task ->
          Mutex.unlock t.mutex;
          task ();
          Mutex.lock t.mutex;
          finish_one t;
          help ()
      | None ->
          while t.pending > 0 do
            Condition.wait t.drained t.mutex
          done;
          Mutex.unlock t.mutex
    in
    help ();
    match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let map t f arr =
  let n = Array.length arr in
  if n <= 1 || t.workers = [] then Array.map f arr
  else begin
    let out = Array.make n None in
    (* A few chunks per domain smooths out uneven task costs without
       shrinking tasks below the point where queue traffic dominates.
       Chunk boundaries depend only on [n] and the pool width, and slot
       [j] is always written from input [j] — deterministic ordering. *)
    let chunks = min n (t.width * 4) in
    let tasks =
      Array.init chunks (fun c ->
          let lo = c * n / chunks and hi = (c + 1) * n / chunks in
          fun () ->
            for j = lo to hi - 1 do
              out.(j) <- Some (f arr.(j))
            done)
    in
    run t tasks;
    Array.map
      (function Some x -> x | None -> invalid_arg "Pool.map: missing result")
      out
  end

let map_list t f xs = Array.to_list (map t f (Array.of_list xs))
