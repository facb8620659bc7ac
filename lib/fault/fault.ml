module Hash = Siri_crypto.Hash
module Store = Siri_store.Store
module Rng = Siri_core.Rng
module Wire = Siri_codec.Wire
module Telemetry = Siri_telemetry.Telemetry

(* --- typed error domain ----------------------------------------------------- *)

type error =
  [ `Tampered of Hash.t
  | `Missing of Hash.t
  | `Transient of Hash.t
  | `Malformed of string ]

let error_to_string = function
  | `Tampered h -> Printf.sprintf "tampered node %s" (Hash.to_hex h)
  | `Missing h ->
      if Hash.is_null h then "missing node"
      else Printf.sprintf "missing node %s" (Hash.to_hex h)
  | `Transient h -> Printf.sprintf "transient failure reading %s" (Hash.short h)
  | `Malformed msg -> Printf.sprintf "malformed data: %s" msg

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

let protect f =
  match f () with
  | v -> Ok v
  | exception Store.Tampered h -> Error (`Tampered h)
  | exception Store.Missing h -> Error (`Missing h)
  | exception Store.Transient h -> Error (`Transient h)
  | exception Not_found -> Error (`Missing Hash.null)
  | exception Wire.Reader.Truncated -> Error (`Malformed "truncated input")
  | exception Failure msg -> Error (`Malformed msg)
  | exception Invalid_argument msg -> Error (`Malformed msg)

(* The one retry loop in the system: every transient-fault consumer (the
   forkbase Remote's flaky link, the pack segment reader, the engine's
   [*_checked] accessors) funnels through here, so retry accounting and
   backoff behave identically everywhere. *)
let with_retry ?(attempts = 3) ?(backoff_s = 0.) ?jitter ?sleep
    ?(sink = Telemetry.null) f =
  let attempts = max 1 attempts in
  let sleep =
    match sleep with
    | Some s -> s
    | None -> fun d -> if d > 0. then Unix.sleepf d
  in
  (* Full jitter (AWS-style): each pause is uniform in [0, backoff·2^i)
     instead of exactly backoff·2^i, so a fleet of clients that failed
     together does not retry together — the retry storm a recovering
     server would otherwise face.  Draws come from a seeded splitmix
     generator, so a test can replay the exact schedule. *)
  let jitter_rng = Option.map Rng.create jitter in
  let pause i =
    let cap = backoff_s *. float_of_int (1 lsl i) in
    match jitter_rng with
    | None -> cap
    | Some rng -> cap *. Rng.float rng
  in
  let rec go i =
    match protect f with
    | Error (`Transient _) when i + 1 < attempts ->
        Telemetry.incr sink "retry.attempt";
        sleep (pause i);
        go (i + 1)
    | Error (`Transient _) as r ->
        Telemetry.incr sink "retry.give_up";
        r
    | r -> r
  in
  go 0

let retrying ?attempts f = with_retry ?attempts f

(* --- verified accessors ------------------------------------------------------ *)

let protect_h h f =
  (* Like [protect], but a bare [Not_found] from the store names [h]. *)
  match protect f with
  | Error (`Missing n) when Hash.is_null n -> Error (`Missing h)
  | r -> r

let get_checked store h =
  match protect_h h (fun () -> Store.get store h) with
  | Ok bytes when not (Hash.equal (Hash.of_string bytes) h) ->
      Error (`Tampered h)
  | r -> r

let children_checked store h = protect_h h (fun () -> Store.children store h)

(* --- fault plans ------------------------------------------------------------- *)

type plan = {
  seed : int;
  bit_flip : float;
  truncate : float;
  drop : float;
  transient : float;
  latency_s : float;
  verify_reads : bool;
}

let clamp p = if p < 0. then 0. else if p > 1. then 1. else p

let plan ?(bit_flip = 0.) ?(truncate = 0.) ?(drop = 0.) ?(transient = 0.)
    ?(latency_s = 0.) ?(verify_reads = true) ~seed () =
  { seed;
    bit_flip = clamp bit_flip;
    truncate = clamp truncate;
    drop = clamp drop;
    transient = clamp transient;
    latency_s = (if latency_s < 0. then 0. else latency_s);
    verify_reads }

type armed = {
  plan : plan;
  target : Store.t;
  gate_rng : Rng.t;  (* per-read transient draws *)
  corrupted : Hash.t list;
  dropped_set : Hash.Set.t;
  mutable transients : int;
  mutable reads : int;
  mutable latency : float;
}

let arm plan store =
  (* Victim selection must not depend on hash-table iteration order: collect
     every stored node's hash, sort, then walk with a seeded generator. *)
  let hashes = ref [] in
  Store.iter_nodes store (fun bytes _ ->
      hashes := Hash.of_string bytes :: !hashes);
  let hashes = List.sort Hash.compare !hashes in
  let rng = Rng.create plan.seed in
  let corrupted = ref [] in
  let dropped = ref Hash.Set.empty in
  List.iter
    (fun h ->
      let r = Rng.float rng in
      if r < plan.bit_flip then begin
        Store.corrupt_at store h ~pos:(Rng.int rng 1_000_003);
        corrupted := h :: !corrupted
      end
      else if r < plan.bit_flip +. plan.truncate then begin
        let len = Store.size_of store h in
        Store.truncate_node store h ~keep:(len / 2);
        corrupted := h :: !corrupted
      end
      else if r < plan.bit_flip +. plan.truncate +. plan.drop then
        dropped := Hash.Set.add h !dropped)
    hashes;
  let a =
    { plan;
      target = store;
      gate_rng = Rng.split rng;
      corrupted = List.sort Hash.compare !corrupted;
      dropped_set = !dropped;
      transients = 0;
      reads = 0;
      latency = 0. }
  in
  let gate h bytes =
    a.reads <- a.reads + 1;
    (* Latency is charged up front: a read that then fails still burned
       its round trip. *)
    a.latency <- a.latency +. a.plan.latency_s;
    if a.plan.transient > 0. && Rng.float a.gate_rng < a.plan.transient
    then begin
      a.transients <- a.transients + 1;
      raise (Store.Transient h)
    end;
    if Hash.Set.mem h a.dropped_set then raise (Store.Missing h);
    if a.plan.verify_reads && not (Hash.equal (Hash.of_string bytes) h) then
      raise (Store.Tampered h)
  in
  Store.set_read_gate store (Some gate);
  a

let flip_blob ~seed ~rate blob =
  let rate = clamp rate in
  let rng = Rng.create seed in
  let b = Bytes.of_string blob in
  let offsets = ref [] in
  for i = 0 to Bytes.length b - 1 do
    if Rng.float rng < rate then begin
      let bit = Rng.int rng 8 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      offsets := i :: !offsets
    end
  done;
  (Bytes.unsafe_to_string b, List.rev !offsets)

(* --- segment I/O gates -------------------------------------------------------- *)

(* Raw-read fault injection for file-backed storage (pack segments): the
   gate sits between the pread and the record verification, so an
   injected bit flip or short read must be caught by the head digest or
   the content hash and surface as [`Tampered], while transients exercise the retry path. *)

type io_gate = {
  io_plan : plan;
  io_rng : Rng.t;
  mutable io_transients : int;
  mutable io_flips : int;
  mutable io_truncations : int;
}

let io_gate plan =
  { io_plan = plan;
    io_rng = Rng.create plan.seed;
    io_transients = 0;
    io_flips = 0;
    io_truncations = 0 }

let gate_read g h bytes =
  let p = g.io_plan in
  let r = Rng.float g.io_rng in
  if p.transient > 0. && r < p.transient then begin
    g.io_transients <- g.io_transients + 1;
    raise (Store.Transient h)
  end
  else if r < p.transient +. p.bit_flip then begin
    g.io_flips <- g.io_flips + 1;
    if String.length bytes = 0 then bytes
    else begin
      let b = Bytes.of_string bytes in
      let i = Rng.int g.io_rng (Bytes.length b) in
      let bit = Rng.int g.io_rng 8 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      Bytes.unsafe_to_string b
    end
  end
  else if r < p.transient +. p.bit_flip +. p.truncate then begin
    g.io_truncations <- g.io_truncations + 1;
    String.sub bytes 0 (String.length bytes / 2)
  end
  else bytes

let io_transients g = g.io_transients
let io_flips g = g.io_flips
let io_truncations g = g.io_truncations

let disarm a = Store.set_read_gate a.target None
let store a = a.target
let corrupted a = a.corrupted
let dropped a = Hash.Set.elements a.dropped_set
let injected_transients a = a.transients
let reads a = a.reads
let simulated_latency a = a.latency
