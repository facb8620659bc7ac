(* Rolling hash and content-defined chunking: determinism, the rolling
   property, boundary statistics, and the resynchronisation property that
   underpins POS-Tree's structural invariance. *)

module Buzhash = Siri_chunk.Buzhash
module Chunker = Siri_chunk.Chunker
module Rng = Siri_core.Rng

let random_string rng n = Rng.string_alnum rng n

let test_rolling_property () =
  (* After feeding >= window bytes, the state must equal the hash of the
     last [window] bytes alone. *)
  let rng = Rng.create 1 in
  let window = 16 in
  let data = random_string rng 500 in
  let t = Buzhash.create ~window in
  String.iteri
    (fun i c ->
      let h = Buzhash.roll t c in
      if i + 1 >= window then begin
        let tail = String.sub data (i + 1 - window) window in
        Alcotest.(check int)
          (Printf.sprintf "window content at %d" i)
          (Buzhash.hash_string ~window tail)
          h
      end)
    data

let test_determinism () =
  let rng = Rng.create 2 in
  let data = random_string rng 1000 in
  Alcotest.(check int) "same input same hash"
    (Buzhash.hash_string ~window:67 data)
    (Buzhash.hash_string ~window:67 data)

let test_reset () =
  let t = Buzhash.create ~window:8 in
  ignore (Buzhash.roll t 'a');
  ignore (Buzhash.roll t 'b');
  Buzhash.reset t;
  Alcotest.(check int) "fed resets" 0 (Buzhash.fed t);
  Alcotest.(check int) "value resets" 0 (Buzhash.value t)

let test_window_validation () =
  Alcotest.check_raises "zero window"
    (Invalid_argument "Buzhash.create: window must be positive") (fun () ->
      ignore (Buzhash.create ~window:0))

let test_chunk_sizes () =
  (* Expected chunk size ~2^bits; check the empirical mean is within 3x. *)
  let rng = Rng.create 3 in
  let items = List.init 4000 (fun _ -> random_string rng 32) in
  let cfg = Chunker.config ~pattern_bits:8 () in
  let chunks = Chunker.split cfg items in
  let total_bytes = 4000 * 32 in
  let mean = Float.of_int total_bytes /. Float.of_int (List.length chunks) in
  Alcotest.(check bool)
    (Printf.sprintf "mean chunk %.0f ~ 256" mean)
    true
    (mean > 85.0 && mean < 768.0);
  (* Chunks concatenate back to the input. *)
  Alcotest.(check int) "no items lost" (List.length items)
    (List.fold_left (fun acc c -> acc + List.length c) 0 chunks);
  Alcotest.(check bool) "order preserved" true (List.concat chunks = items)

let test_max_size_cut () =
  (* Pattern so rare that (on random data) only max_size cuts fire. *)
  let cfg = Chunker.config ~pattern_bits:30 ~max_size:100 () in
  let rng = Rng.create 99 in
  let items = List.init 100 (fun _ -> random_string rng 10) in
  let chunks = Chunker.split cfg items in
  List.iter
    (fun c ->
      let bytes = List.fold_left (fun a s -> a + String.length s) 0 c in
      Alcotest.(check bool) "chunk <= max" true (bytes <= 100))
    chunks;
  Alcotest.(check int) "exactly 10-item chunks" 10 (List.length chunks)

let test_min_size () =
  let cfg = Chunker.config ~pattern_bits:2 ~min_size:64 ~max_size:10_000 () in
  let rng = Rng.create 4 in
  let items = List.init 1000 (fun _ -> random_string rng 8) in
  let chunks = Chunker.split cfg items in
  (* All chunks except possibly the last respect the minimum. *)
  let rec check = function
    | [] | [ _ ] -> ()
    | c :: rest ->
        let bytes = List.fold_left (fun a s -> a + String.length s) 0 c in
        Alcotest.(check bool) "chunk >= min" true (bytes >= 64);
        check rest
  in
  check chunks

let test_resynchronisation () =
  (* Editing one item must leave all chunks after resync identical: the
     chunk lists share a common tail. *)
  let rng = Rng.create 5 in
  let items = Array.init 2000 (fun _ -> random_string rng 32) in
  let cfg = Chunker.config ~pattern_bits:8 () in
  let chunks1 = Chunker.split cfg (Array.to_list items) in
  items.(1000) <- "EDITED-" ^ random_string rng 25;
  let chunks2 = Chunker.split cfg (Array.to_list items) in
  let tail_common l1 l2 =
    let a1 = Array.of_list l1 and a2 = Array.of_list l2 in
    let rec count i =
      let i1 = Array.length a1 - 1 - i and i2 = Array.length a2 - 1 - i in
      if i1 >= 0 && i2 >= 0 && a1.(i1) = a2.(i2) then count (i + 1) else i
    in
    count 0
  in
  (* Boundaries are item-local, so chunking realigns at the next
     boundary-carrying item: at most a couple of chunks around the edit may
     differ, wherever in the stream the edit falls. *)
  let prefix_common l1 l2 =
    let rec go l1 l2 n =
      match (l1, l2) with
      | x :: r1, y :: r2 when x = y -> go r1 r2 (n + 1)
      | _ -> n
    in
    go l1 l2 0
  in
  let shared_tail = tail_common chunks1 chunks2 in
  let shared_prefix = prefix_common chunks1 chunks2 in
  let total = min (List.length chunks1) (List.length chunks2) in
  Alcotest.(check bool)
    (Printf.sprintf "prefix %d + tail %d of %d chunks" shared_prefix shared_tail
       total)
    true
    (shared_prefix + shared_tail >= total - 2)

let test_hash_boundary_rate () =
  (* The child-hash rule should fire at ~1/2^bits. *)
  let cfg = Chunker.config ~pattern_bits:4 () in
  let hits = ref 0 in
  let total = 4096 in
  for i = 0 to total - 1 do
    if Chunker.hash_boundary cfg (Siri_crypto.Hash.of_string (string_of_int i))
    then incr hits
  done;
  let rate = Float.of_int !hits /. Float.of_int total in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.4f ~ 1/16" rate)
    true
    (rate > 0.03 && rate < 0.10)

let test_config_validation () =
  Alcotest.check_raises "bits range"
    (Invalid_argument "Chunker.config: pattern_bits out of range") (fun () ->
      ignore (Chunker.config ~pattern_bits:0 ()));
  Alcotest.check_raises "min >= max"
    (Invalid_argument "Chunker.config: bad min/max sizes") (fun () ->
      ignore (Chunker.config ~pattern_bits:4 ~min_size:100 ~max_size:50 ()))

let test_skip_force_cut () =
  (* Skipped bytes count toward max_size: the tenth 10-byte item is cut. *)
  let c = Chunker.create (Chunker.config ~pattern_bits:30 ~max_size:100 ()) in
  for i = 1 to 9 do
    Alcotest.(check bool) (Printf.sprintf "item %d not cut" i) false (Chunker.skip c 10)
  done;
  Alcotest.(check int) "90 bytes counted" 90 (Chunker.size c);
  Alcotest.(check bool) "tenth item force-cut" true (Chunker.skip c 10);
  Alcotest.(check int) "state reset" 0 (Chunker.size c)

let qcheck_skip_matches_feed =
  (* Two chunkers take the same item sequence; for every item whose bytes
     carry no pattern (probed on an uncapped chunker) one feeds and the
     other skips.  Verdicts and sizes must agree after every item, so the
     states stay interchangeable.  Small caps make force-cuts common. *)
  QCheck.Test.make ~name:"skip = feed on non-firing items" ~count:200
    QCheck.(
      triple (int_range 4 9) (int_range 8 160)
        (list_of_size Gen.(0 -- 200) (string_of_size Gen.(1 -- 40))))
    (fun (bits, max_size, items) ->
      let cfg = Chunker.config ~pattern_bits:bits ~max_size () in
      let probe = Chunker.create (Chunker.config ~pattern_bits:bits ~max_size:max_int ()) in
      let fires item =
        let f = Chunker.feed probe item in
        Chunker.reset probe;
        f
      in
      let fed = Chunker.create cfg and mixed = Chunker.create cfg in
      List.for_all
        (fun item ->
          let by_feed = Chunker.feed fed item in
          let by_mixed =
            if fires item then Chunker.feed mixed item
            else Chunker.skip mixed (String.length item)
          in
          by_feed = by_mixed && Chunker.size fed = Chunker.size mixed)
        items)

let qcheck_split_preserves =
  QCheck.Test.make ~name:"split preserves item sequence" ~count:100
    QCheck.(list_of_size Gen.(0 -- 200) (string_of_size Gen.(1 -- 50)))
    (fun items ->
      let cfg = Chunker.config ~pattern_bits:6 () in
      List.concat (Chunker.split cfg items) = items)

let qcheck_split_deterministic =
  QCheck.Test.make ~name:"split deterministic" ~count:100
    QCheck.(list_of_size Gen.(0 -- 100) (string_of_size Gen.(1 -- 30)))
    (fun items ->
      let cfg = Chunker.config ~pattern_bits:5 () in
      Chunker.split cfg items = Chunker.split cfg items)

let () =
  Alcotest.run "chunk"
    [ ( "buzhash",
        [ Alcotest.test_case "rolling property" `Quick test_rolling_property;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "window validation" `Quick test_window_validation ] );
      ( "chunker",
        [ Alcotest.test_case "chunk size distribution" `Quick test_chunk_sizes;
          Alcotest.test_case "max-size force cut" `Quick test_max_size_cut;
          Alcotest.test_case "min-size respected" `Quick test_min_size;
          Alcotest.test_case "resynchronisation" `Quick test_resynchronisation;
          Alcotest.test_case "hash boundary rate" `Quick test_hash_boundary_rate;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "skip force cut" `Quick test_skip_force_cut;
          QCheck_alcotest.to_alcotest qcheck_skip_matches_feed;
          QCheck_alcotest.to_alcotest qcheck_split_preserves;
          QCheck_alcotest.to_alcotest qcheck_split_deterministic ] ) ]
