(* Per-layer spans for the traced in-process run, recorded from the
   benchmark's own files: the [Generic.t] closure record and the
   [Store.backend] record are rebuilt with every call routed through
   [span], so the program under test is unchanged.  A span's self time is
   its duration minus the spans nested inside it.  Single-threaded: the
   traced run replays on one thread.  With [on] false a wrapper is one
   branch and a direct call. *)

module Generic = Siri_core.Generic
module Store = Siri_store.Store

type layer =
  | Index  (** Generic.t closures: the POS-Tree build, walk, proof, scan *)
  | Pack_read  (** Store.backend: cold node read *)
  | Pack_write  (** Store.backend: write-through append *)
  | Pack_flush  (** Store.backend: flush to the OS / fsync *)
  | Wal  (** Durable.commit: journal frame, write, fsync, commit object *)
  | Proto  (** Proto encode/seal/unseal/decode of both messages *)
  | Multiproof  (** Multiproof.encode of the proof reply *)

let layers = [ Index; Pack_read; Pack_write; Pack_flush; Wal; Proto; Multiproof ]
let count = List.length layers

let slot = function
  | Index -> 0
  | Pack_read -> 1
  | Pack_write -> 2
  | Pack_flush -> 3
  | Wal -> 4
  | Proto -> 5
  | Multiproof -> 6

let name = function
  | Index -> "index"
  | Pack_read -> "pack.read"
  | Pack_write -> "pack.write"
  | Pack_flush -> "pack.flush"
  | Wal -> "wal"
  | Proto -> "proto"
  | Multiproof -> "multiproof"

let now = Unix.gettimeofday
let on = ref false

(* Current operation: self and inclusive seconds per layer, and the
   child-time accumulator of every open span, innermost first. *)
let self = Array.make count 0.0
let incl = Array.make count 0.0
let frames : float ref list ref = ref []

(* Payload bytes handed to the pack, whether tracing is on or not. *)
let pack_bytes_written = ref 0

let span layer f =
  if not !on then f ()
  else begin
    let child = ref 0.0 in
    frames := child :: !frames;
    let t0 = now () in
    let finish () =
      let d = now () -. t0 in
      (match !frames with
      | _ :: (parent :: _ as rest) ->
          parent := !parent +. d;
          frames := rest
      | _ -> frames := []);
      let i = slot layer in
      self.(i) <- self.(i) +. (d -. !child);
      incl.(i) <- incl.(i) +. d
    in
    match f () with
    | x ->
        finish ();
        x
    | exception e ->
        finish ();
        raise e
  end

type op_trace = {
  op_s : float;  (** outer clock reads around the whole operation *)
  unattributed_s : float;  (** the root span's own self time *)
  self_s : float array;  (** per layer, indexed by [slot] *)
  incl_s : float array;  (** summed span durations, children included *)
}

(* Run one operation under a root span.  [op_s] comes from separate clock
   reads outside the root span, so the conservation check (layer self
   times + unattributed = op time) compares two independent readings. *)
let op f =
  Array.fill self 0 count 0.0;
  Array.fill incl 0 count 0.0;
  let root = ref 0.0 in
  frames := [ root ];
  let t_outer = now () in
  let t0 = now () in
  let x = f () in
  let d = now () -. t0 in
  let op_s = now () -. t_outer in
  frames := [];
  ( x,
    { op_s;
      unattributed_s = d -. !root;
      self_s = Array.copy self;
      incl_s = Array.copy incl } )

let rec timed_seq s () =
  match span Index s with
  | Seq.Nil -> Seq.Nil
  | Seq.Cons (x, tl) -> Seq.Cons (x, timed_seq tl)

(* Every version derived through [batch], [bulk_load] or [reopen] is
   wrapped again, so the engine never reaches an unwrapped closure. *)
let rec generic (g : Generic.t) : Generic.t =
  let ix f = span Index f in
  { g with
    lookup = (fun k -> ix (fun () -> g.lookup k));
    get_many = (fun ks -> ix (fun () -> g.get_many ks));
    path_length = (fun k -> ix (fun () -> g.path_length k));
    batch = (fun ops -> generic (ix (fun () -> g.batch ops)));
    bulk_load = (fun es -> generic (ix (fun () -> g.bulk_load es)));
    prove = (fun k -> ix (fun () -> g.prove k));
    prove_many = (fun ks -> ix (fun () -> g.prove_many ks));
    reopen = (fun h -> generic (ix (fun () -> g.reopen h)));
    range = (fun ~lo ~hi -> ix (fun () -> g.range ~lo ~hi));
    scan = (fun ~lo ~hi -> timed_seq (ix (fun () -> g.scan ~lo ~hi))) }

let backend (b : Store.backend) : Store.backend =
  { b with
    backend_read = (fun h -> span Pack_read (fun () -> b.backend_read h));
    backend_write =
      (fun nodes ->
        List.iter
          (fun (_, bytes, _) ->
            pack_bytes_written := !pack_bytes_written + String.length bytes)
          nodes;
        span Pack_write (fun () -> b.backend_write nodes));
    backend_flush =
      (fun ~sync -> span Pack_flush (fun () -> b.backend_flush ~sync)) }
