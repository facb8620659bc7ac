type t = { mutable samples : float list; mutable sorted : float array option }

let create () = { samples = []; sorted = None }

let add t x =
  t.samples <- x :: t.samples;
  t.sorted <- None

let sorted t =
  match t.sorted with
  | Some a -> a
  | None ->
      let a = Array.of_list t.samples in
      Array.sort Float.compare a;
      t.sorted <- Some a;
      a

let count t = List.length t.samples

let mean t =
  match t.samples with
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. Float.of_int (List.length l)

let min_value t =
  let a = sorted t in
  if Array.length a = 0 then 0.0 else a.(0)

let max_value t =
  let a = sorted t in
  if Array.length a = 0 then 0.0 else a.(Array.length a - 1)

let percentile t p =
  let a = sorted t in
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let rank = Float.to_int (Float.of_int (n - 1) *. p) in
    a.(max 0 (min (n - 1) rank))
  end

let buckets t ~n =
  let a = sorted t in
  if Array.length a = 0 || n <= 0 then []
  else begin
    let lo = a.(0) and hi = a.(Array.length a - 1) in
    let width = if hi > lo then (hi -. lo) /. Float.of_int n else 1.0 in
    let counts = Array.make n 0 in
    Array.iter
      (fun x ->
        let i = min (n - 1) (Float.to_int ((x -. lo) /. width)) in
        counts.(i) <- counts.(i) + 1)
      a;
    List.init n (fun i ->
        (lo +. (Float.of_int i *. width), lo +. (Float.of_int (i + 1) *. width), counts.(i)))
  end
