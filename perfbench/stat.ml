(* Raw per-operation samples and exact order statistics over them.
   Percentiles interpolate linearly between the two closest ranks (the
   rule of Python's [statistics.quantiles(method="inclusive")] and numpy's
   default), never snapping to a histogram bucket bound. *)

type t = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 1024 0.0; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let d = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 d 0 t.len;
    t.data <- d
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let count t = t.len
let to_array t = Array.sub t.data 0 t.len

let merge ts =
  let m = create () in
  List.iter (fun t -> for i = 0 to t.len - 1 do add m t.data.(i) done) ts;
  m

let sum t =
  let s = ref 0.0 in
  for i = 0 to t.len - 1 do s := !s +. t.data.(i) done;
  !s

let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let quantile t q =
  let a = to_array t in
  Array.sort Float.compare a;
  quantile_sorted a q

let median t = quantile t 0.5

(* Samples strictly above the q-quantile: the guide's rule is to report
   the highest percentile with at least ten samples beyond it. *)
let beyond t q =
  let v = quantile t q in
  let n = ref 0 in
  for i = 0 to t.len - 1 do if t.data.(i) > v then incr n done;
  !n

let median_of l =
  let t = create () in
  List.iter (add t) l;
  median t
