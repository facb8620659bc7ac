(* See telemetry.mli for the design.  The sink is an option so that the
   disabled path costs one pattern match — instrumentation stays on the hot
   paths permanently and is free when no sink is attached. *)

(* --- log-bucketed histograms ------------------------------------------------ *)

module Histo = struct
  (* Bucket [i] covers (base * 2^(i-1), base * 2^i] with base = 1 ns;
     bucket 0 additionally absorbs everything <= base (including 0 and any
     negative sample, which cannot occur from a monotone clock).  64
     buckets reach ~2.9e2 years — effectively unbounded for latencies. *)

  let nbuckets = 64
  let base = 1e-9

  type t = {
    counts : int array;
    mutable count : int;
    mutable sum : float;
    mutable min_v : float;
    mutable max_v : float;
  }

  let create () =
    { counts = Array.make nbuckets 0;
      count = 0;
      sum = 0.0;
      min_v = infinity;
      max_v = neg_infinity }

  let bucket_of x =
    if x <= base then 0
    else
      let b = int_of_float (Float.ceil (Float.log2 (x /. base))) in
      if b < 0 then 0 else if b >= nbuckets then nbuckets - 1 else b

  let add t x =
    let i = bucket_of x in
    t.counts.(i) <- t.counts.(i) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum +. x;
    if x < t.min_v then t.min_v <- x;
    if x > t.max_v then t.max_v <- x

  let count t = t.count
  let sum t = t.sum
  let min_value t = if t.count = 0 then 0.0 else t.min_v
  let max_value t = if t.count = 0 then 0.0 else t.max_v
  let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count

  let upper i = base *. Float.pow 2.0 (float_of_int i)
  let lower i = if i = 0 then 0.0 else upper (i - 1)

  let quantile t p =
    if t.count = 0 then 0.0
    else begin
      let p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p in
      let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int t.count))) in
      let rec go i seen =
        if i >= nbuckets then t.max_v
        else
          let seen = seen + t.counts.(i) in
          if seen >= rank then upper i else go (i + 1) seen
      in
      let est = go 0 0 in
      (* The estimate is a bucket bound; the true sample lies in [min, max]. *)
      Float.min t.max_v (Float.max t.min_v est)
    end

  let p50 t = quantile t 0.5
  let p95 t = quantile t 0.95
  let p99 t = quantile t 0.99

  let buckets t =
    let acc = ref [] in
    for i = nbuckets - 1 downto 0 do
      if t.counts.(i) > 0 then acc := (lower i, upper i, t.counts.(i)) :: !acc
    done;
    !acc
end

(* --- sink ------------------------------------------------------------------- *)

type span = { name : string; start_s : float; stop_s : float; depth : int }

type state = {
  clock : unit -> float;
  mu : Mutex.t;
      (* guards [counters], [histos], [spans] and [nspans]: server session
         threads on several domains meter onto one sink, and an unguarded
         Hashtbl resize racing a lookup can corrupt a bucket chain. *)
  counters : (string, int ref) Hashtbl.t;
  histos : (string, Histo.t) Hashtbl.t;
  max_spans : int;
  mutable spans : span list;  (* completed, newest first *)
  mutable nspans : int;
  depth : int ref Domain.DLS.key;
      (* span nesting cursor, one per domain: nesting is a property of one
         call stack, and a shared cursor would mix the stacks of domains
         recording spans at the same time *)
}

let locked s f =
  Mutex.lock s.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.mu) f

type sink = state option

let null = None

let tick_clock () =
  let ticks = Atomic.make 0 in
  fun () -> float_of_int (1 + Atomic.fetch_and_add ticks 1)

let create ?clock ?(max_spans = 100_000) () =
  let clock = match clock with Some c -> c | None -> tick_clock () in
  Some
    { clock;
      mu = Mutex.create ();
      counters = Hashtbl.create 64;
      histos = Hashtbl.create 16;
      max_spans;
      spans = [];
      nspans = 0;
      depth = Domain.DLS.new_key (fun () -> ref 0) }

let enabled = Option.is_some
let now = function None -> 0.0 | Some s -> s.clock ()

let incr sink ?(by = 1) name =
  match sink with
  | None -> ()
  | Some s ->
      locked s (fun () ->
          match Hashtbl.find_opt s.counters name with
          | Some r -> r := !r + by
          | None -> Hashtbl.add s.counters name (ref by))

let counter sink name =
  match sink with
  | None -> 0
  | Some s ->
      locked s (fun () ->
          match Hashtbl.find_opt s.counters name with Some r -> !r | None -> 0)

let counters sink =
  match sink with
  | None -> []
  | Some s ->
      locked s (fun () ->
          Hashtbl.fold (fun k r acc -> (k, !r) :: acc) s.counters [])
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let histo_of s name =
  match Hashtbl.find_opt s.histos name with
  | Some h -> h
  | None ->
      let h = Histo.create () in
      Hashtbl.add s.histos name h;
      h

let observe sink name x =
  match sink with
  | None -> ()
  | Some s -> locked s (fun () -> Histo.add (histo_of s name) x)

let histogram sink name =
  match sink with
  | None -> None
  | Some s -> locked s (fun () -> Hashtbl.find_opt s.histos name)

let histograms sink =
  match sink with
  | None -> []
  | Some s ->
      locked s (fun () -> Hashtbl.fold (fun k h acc -> (k, h) :: acc) s.histos [])
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let quantile sink name p =
  match histogram sink name with None -> 0.0 | Some h -> Histo.quantile h p

let record_span s span =
  locked s (fun () ->
      if s.nspans < s.max_spans then begin
        s.spans <- span :: s.spans;
        s.nspans <- s.nspans + 1
      end
      else
        match Hashtbl.find_opt s.counters "telemetry.spans_dropped" with
        | Some r -> Stdlib.incr r
        | None -> Hashtbl.add s.counters "telemetry.spans_dropped" (ref 1))

let with_span sink name f =
  match sink with
  | None -> f ()
  | Some s ->
      let cursor = Domain.DLS.get s.depth in
      let depth = !cursor in
      cursor := depth + 1;
      let start_s = s.clock () in
      let finish () =
        let stop_s = s.clock () in
        Stdlib.decr cursor;
        record_span s { name; start_s; stop_s; depth }
      in
      (match f () with
      | x ->
          finish ();
          x
      | exception e ->
          finish ();
          raise e)

let spans sink =
  match sink with None -> [] | Some s -> List.rev (locked s (fun () -> s.spans))

let span_depth sink =
  match sink with None -> 0 | Some s -> !(Domain.DLS.get s.depth)

let probe sink name f =
  match sink with
  | None -> f ()
  | Some _ as sink ->
      incr sink (name ^ ".calls");
      with_span sink name (fun () ->
          let t0 = now sink in
          let finish () = observe sink name (now sink -. t0) in
          match f () with
          | x ->
              finish ();
              x
          | exception e ->
              finish ();
              raise e)

let reset sink =
  match sink with
  | None -> ()
  | Some s ->
      locked s (fun () ->
          Hashtbl.reset s.counters;
          Hashtbl.reset s.histos;
          s.spans <- [];
          s.nspans <- 0);
      Domain.DLS.get s.depth := 0

(* --- hash metering ----------------------------------------------------------- *)

let attach_hash_counter sink =
  match sink with
  | None -> Siri_crypto.Hash.set_digest_observer None
  | Some _ ->
      Siri_crypto.Hash.set_digest_observer
        (Some
           (fun len ->
             incr sink "hash.count";
             incr sink ~by:len "hash.bytes"))

let detach_hash_counter () = Siri_crypto.Hash.set_digest_observer None

(* --- export ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Obj of (string * t) list
    | Arr of t list
    | Str of string
    | Num of float
    | Int of int
    | Bool of bool

  let obj fields = Obj fields
  let arr xs = Arr xs
  let str s = Str s
  let num x = Num x
  let int n = Int n
  let bool b = Bool b

  let escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let fmt_num x =
    (* JSON has no representation for non-finite numbers. *)
    if Float.is_nan x || x = Float.infinity || x = Float.neg_infinity then "null"
    else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
    else Printf.sprintf "%.9g" x

  let rec render b = function
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            Buffer.add_string b (escape k);
            Buffer.add_string b "\":";
            render b v)
          fields;
        Buffer.add_char b '}'
    | Arr xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char b ',';
            render b v)
          xs;
        Buffer.add_char b ']'
    | Str s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
    | Num x -> Buffer.add_string b (fmt_num x)
    | Int n -> Buffer.add_string b (string_of_int n)
    | Bool v -> Buffer.add_string b (if v then "true" else "false")

  let to_string t =
    let b = Buffer.create 256 in
    render b t;
    Buffer.contents b
end

let json_of_histo h =
  Json.obj
    [ ("count", Json.int (Histo.count h));
      ("sum", Json.num (Histo.sum h));
      ("min", Json.num (Histo.min_value h));
      ("max", Json.num (Histo.max_value h));
      ("mean", Json.num (Histo.mean h));
      ("p50", Json.num (Histo.p50 h));
      ("p95", Json.num (Histo.p95 h));
      ("p99", Json.num (Histo.p99 h)) ]

let json_of_span sp =
  Json.obj
    [ ("name", Json.str sp.name);
      ("start", Json.num sp.start_s);
      ("stop", Json.num sp.stop_s);
      ("depth", Json.int sp.depth) ]

let to_json sink =
  Json.obj
    [ ( "counters",
        Json.obj (List.map (fun (k, v) -> (k, Json.int v)) (counters sink)) );
      ( "histograms",
        Json.obj
          (List.map (fun (k, h) -> (k, json_of_histo h)) (histograms sink)) );
      ("spans", Json.arr (List.map json_of_span (spans sink))) ]

let to_ndjson sink =
  let b = Buffer.create 1024 in
  let line j =
    Buffer.add_string b (Json.to_string j);
    Buffer.add_char b '\n'
  in
  List.iter
    (fun (k, v) ->
      line
        (Json.obj
           [ ("type", Json.str "counter");
             ("name", Json.str k);
             ("value", Json.int v) ]))
    (counters sink);
  List.iter
    (fun (k, h) ->
      line
        (Json.obj
           [ ("type", Json.str "histogram");
             ("name", Json.str k);
             ("summary", json_of_histo h) ]))
    (histograms sink);
  List.iter
    (fun sp ->
      line
        (Json.obj
           (("type", Json.str "span")
           :: [ ("name", Json.str sp.name);
                ("start", Json.num sp.start_s);
                ("stop", Json.num sp.stop_s);
                ("depth", Json.int sp.depth) ])))
    (spans sink);
  Buffer.contents b

let pp ppf sink =
  Format.fprintf ppf "counters:@.";
  List.iter (fun (k, v) -> Format.fprintf ppf "  %-28s %d@." k v) (counters sink);
  Format.fprintf ppf "histograms:@.";
  List.iter
    (fun (k, h) ->
      Format.fprintf ppf "  %-28s n=%d mean=%.2fus p50=%.2fus p95=%.2fus p99=%.2fus@."
        k (Histo.count h)
        (Histo.mean h *. 1e6)
        (Histo.p50 h *. 1e6)
        (Histo.p95 h *. 1e6)
        (Histo.p99 h *. 1e6))
    (histograms sink);
  Format.fprintf ppf "spans: %d completed@." (List.length (spans sink))
