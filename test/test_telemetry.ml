(* Metrics-conservation suite: the telemetry layer is locked in by
   accounting identities, not by golden numbers.  Whatever the workload,
   the sink's counters must agree with the store's own statistics
   ([store.put] = [stats.puts], …), probe histograms must hold exactly one
   sample per call, cache hits and misses must partition the node reads,
   and spans must nest and close.  A final property pins the zero-impact
   guarantee: attaching a sink never changes a root hash. *)

open Siri_core
module Store = Siri_store.Store
module Hash = Siri_crypto.Hash
module Telemetry = Siri_telemetry.Telemetry
module Histo = Telemetry.Histo
module Mpt = Siri_mpt.Mpt
module Mbt = Siri_mbt.Mbt
module Pos = Siri_pos.Pos_tree
module Mvbt = Siri_mvbt.Mvbt
module Remote = Siri_forkbase.Remote

(* One maker per index, labelled with the Generic name the probes use. *)
let makers =
  [ ("mpt", fun store -> Mpt.generic (Mpt.empty store));
    ( "mbt",
      fun store ->
        Mbt.generic (Mbt.empty store (Mbt.config ~capacity:16 ~fanout:4 ())) );
    ( "pos-tree",
      fun store -> Pos.generic (Pos.empty store (Pos.config ~leaf_target:256 ()))
    );
    ( "mvmb+-tree",
      fun store ->
        Mvbt.generic
          (Mvbt.empty store (Mvbt.config ~leaf_capacity:4 ~internal_capacity:5 ()))
    ) ]

let key i = Printf.sprintf "key-%03d" (i mod 500)
let value i = Printf.sprintf "value-%d" (i * 7)

(* Replay a stream of small ints as a mixed workload: every third id is a
   lookup, the rest are single-op commits.  Returns (final, #lookups,
   #batches). *)
let replay t ids =
  let lookups = ref 0 and batches = ref 0 in
  let t =
    List.fold_left
      (fun t i ->
        if i mod 3 = 0 then begin
          incr lookups;
          ignore (t.Generic.lookup (key i));
          t
        end
        else begin
          incr batches;
          t.Generic.batch [ Kv.Put (key i, value i) ]
        end)
      t ids
  in
  (t, !lookups, !batches)

let workload_gen = QCheck.(list_of_size Gen.(1 -- 80) small_nat)

(* store.put/get/put_unique/put_bytes must agree with the store's own
   counters, for any workload, on every index. *)
let conservation_test (label, mk) =
  QCheck.Test.make
    ~name:(label ^ ": sink counters = store stats")
    ~count:30 workload_gen
    (fun ids ->
      let store = Store.create () in
      let sink = Telemetry.create () in
      Store.set_sink store sink;
      let _, lookups, batches = replay (mk store) ids in
      let stats = Store.stats store in
      let c = Telemetry.counter sink in
      let hist_count name =
        match Telemetry.histogram sink name with
        | None -> 0
        | Some h -> Histo.count h
      in
      c "store.put" = stats.Store.puts
      && c "store.get" = stats.Store.gets
      && c "store.put_unique" = stats.Store.unique_nodes
      && c "store.put_bytes" = stats.Store.put_bytes
      && c (label ^ ".lookup.calls") = lookups
      && hist_count (label ^ ".lookup") = lookups
      && c (label ^ ".batch.calls") = batches
      && hist_count (label ^ ".batch") = batches
      && Telemetry.span_depth sink = 0
      && List.for_all
           (fun s -> s.Telemetry.stop_s >= s.Telemetry.start_s && s.Telemetry.depth >= 0)
           (Telemetry.spans sink))

(* Attaching a sink observes; it must not change a single root hash. *)
let root_invariance_test (label, mk) =
  QCheck.Test.make
    ~name:(label ^ ": sink never changes roots")
    ~count:20 workload_gen
    (fun ids ->
      let build instrument =
        let store = Store.create () in
        if instrument then Store.set_sink store (Telemetry.create ());
        let t, _, _ = replay (mk store) ids in
        Hash.to_hex t.Generic.root
      in
      String.equal (build true) (build false))

(* With the Remote simulation sharing the store's sink, every node read is
   classified as exactly one cache hit or miss. *)
let cache_partition_test (label, mk) =
  QCheck.Test.make
    ~name:(label ^ ": cache.hit + cache.miss = store.get")
    ~count:20 workload_gen
    (fun ids ->
      let store = Store.create () in
      let t = Generic.of_entries (mk store) (List.map (fun i -> (key i, value i)) ids) in
      let sink = Telemetry.create () in
      Store.set_sink store sink;
      let remote = Remote.attach store ~cache_nodes:8 ~sink Remote.gigabit_lan in
      List.iter (fun i -> ignore (t.Generic.lookup (key i))) (ids @ ids);
      Remote.detach store remote;
      let c = Telemetry.counter sink in
      c "cache.hit" + c "cache.miss" = c "store.get"
      && Remote.hits remote = c "cache.hit"
      && Remote.misses remote = c "cache.miss")

(* Deterministic span semantics under the tick clock. *)
let test_span_nesting () =
  let sink = Telemetry.create () in
  let depth_inside = ref (-1) in
  let result =
    Telemetry.with_span sink "outer" (fun () ->
        Telemetry.with_span sink "inner" (fun () ->
            depth_inside := Telemetry.span_depth sink;
            17))
  in
  Alcotest.(check int) "thunk result" 17 result;
  Alcotest.(check int) "depth inside inner" 2 !depth_inside;
  Alcotest.(check int) "depth after" 0 (Telemetry.span_depth sink);
  match Telemetry.spans sink with
  | [ inner; outer ] ->
      Alcotest.(check string) "inner first" "inner" inner.Telemetry.name;
      Alcotest.(check string) "outer second" "outer" outer.Telemetry.name;
      Alcotest.(check int) "inner depth" 1 inner.Telemetry.depth;
      Alcotest.(check int) "outer depth" 0 outer.Telemetry.depth;
      Alcotest.(check bool) "inner inside outer" true
        (outer.Telemetry.start_s <= inner.Telemetry.start_s
        && inner.Telemetry.stop_s <= outer.Telemetry.stop_s)
  | spans ->
      Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_span_on_raise () =
  let sink = Telemetry.create () in
  (try Telemetry.with_span sink "doomed" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "span recorded despite raise" 1
    (List.length (Telemetry.spans sink));
  Alcotest.(check int) "depth restored" 0 (Telemetry.span_depth sink)

(* Spans from several domains at once: every span lands in the shared
   list (appended under the sink's lock), each domain nests against its
   own depth cursor, and every cursor returns to 0. *)
let test_span_domains () =
  let sink = Telemetry.create ~clock:Unix.gettimeofday () in
  let n = 4 and m = 10_000 in
  let started = Atomic.make 0 in
  let worker () =
    (* start together, so the domains' spans overlap *)
    Atomic.incr started;
    while Atomic.get started < n do
      Domain.cpu_relax ()
    done;
    let bad_depth = ref 0 in
    for _ = 1 to m / 2 do
      Telemetry.with_span sink "outer" (fun () ->
          Telemetry.with_span sink "inner" (fun () ->
              if Telemetry.span_depth sink <> 2 then incr bad_depth))
    done;
    (!bad_depth, Telemetry.span_depth sink)
  in
  let results =
    List.map Domain.join (List.init n (fun _ -> Domain.spawn worker))
  in
  List.iteri
    (fun i (bad, depth) ->
      Alcotest.(check int) (Printf.sprintf "domain %d nests at depth 2" i) 0 bad;
      Alcotest.(check int)
        (Printf.sprintf "domain %d depth back to 0" i)
        0 depth)
    results;
  let spans = Telemetry.spans sink in
  Alcotest.(check int) "every span recorded" (n * m) (List.length spans);
  Alcotest.(check int) "inner spans at depth 1" (n * m / 2)
    (List.length (List.filter (fun s -> s.Telemetry.depth = 1) spans));
  Alcotest.(check int) "this domain's depth" 0 (Telemetry.span_depth sink)

(* Every digest computed during a build is metered; there is at least one
   per logical write (put hashes its payload). *)
let test_hash_metering () =
  let store = Store.create () in
  let sink = Telemetry.create () in
  Store.set_sink store sink;
  Telemetry.attach_hash_counter sink;
  Fun.protect ~finally:Telemetry.detach_hash_counter (fun () ->
      let t =
        Generic.of_entries
          ((List.assoc "mpt" makers) store)
          (List.init 100 (fun i -> (key i, value i)))
      in
      ignore (t.Generic.lookup (key 1));
      let c = Telemetry.counter sink in
      Alcotest.(check bool) "hash.count >= store.put" true
        (c "hash.count" >= c "store.put");
      Alcotest.(check bool) "hash.bytes >= store.put_bytes" true
        (c "hash.bytes" >= c "store.put_bytes"))

(* Histogram accounting: exact count/sum/min/max, bucket counts summing to
   the total, quantiles clamped to the observed range. *)
let test_histo_accounting () =
  let h = Histo.create () in
  let samples = List.init 1000 (fun i -> float_of_int (i + 1) *. 1e-6) in
  List.iter (Histo.add h) samples;
  Alcotest.(check int) "count" 1000 (Histo.count h);
  Alcotest.(check (float 1e-9)) "sum" (List.fold_left ( +. ) 0. samples) (Histo.sum h);
  Alcotest.(check (float 0.)) "min" 1e-6 (Histo.min_value h);
  Alcotest.(check (float 0.)) "max" 1e-3 (Histo.max_value h);
  Alcotest.(check int) "bucket counts partition the samples" 1000
    (List.fold_left (fun acc (_, _, n) -> acc + n) 0 (Histo.buckets h));
  List.iter
    (fun p ->
      let q = Histo.quantile h p in
      Alcotest.(check bool)
        (Printf.sprintf "q%.2f within [min,max]" p)
        true
        (q >= Histo.min_value h && q <= Histo.max_value h))
    [ 0.0; 0.5; 0.95; 0.99; 1.0 ];
  Alcotest.(check bool) "quantiles monotone" true
    (Histo.p50 h <= Histo.p95 h && Histo.p95 h <= Histo.p99 h)

(* The null sink records nothing and costs nothing observable. *)
let test_null_sink () =
  Alcotest.(check bool) "null disabled" false (Telemetry.enabled Telemetry.null);
  Telemetry.incr Telemetry.null "x";
  Telemetry.observe Telemetry.null "x" 1.0;
  let r = Telemetry.with_span Telemetry.null "x" (fun () -> 3) in
  Alcotest.(check int) "with_span passthrough" 3 r;
  Alcotest.(check int) "no counters" 0
    (List.length (Telemetry.counters Telemetry.null));
  Alcotest.(check string) "empty ndjson" "" (Telemetry.to_ndjson Telemetry.null)

(* JSON export is well-formed enough to round-trip the interesting shapes:
   escapes, non-finite floats as null, nested objects. *)
let test_json_export () =
  let open Telemetry.Json in
  Alcotest.(check string) "escaping"
    {|{"k\"\n":"v\\"}|}
    (to_string (obj [ ("k\"\n", str "v\\") ]));
  Alcotest.(check string) "nan is null" {|[null,1,1.5]|}
    (to_string (arr [ num Float.nan; num 1.0; num 1.5 ]));
  let sink = Telemetry.create () in
  Telemetry.incr sink "a.b";
  Telemetry.observe sink "lat" 1e-5;
  let s = to_string (Telemetry.to_json sink) in
  Alcotest.(check bool) "counter exported" true
    (Astring.String.is_infix ~affix:{|"a.b":1|} s);
  Alcotest.(check bool) "histogram exported" true
    (Astring.String.is_infix ~affix:{|"lat"|} s);
  let nd = Telemetry.to_ndjson sink in
  List.iter
    (fun line ->
      Alcotest.(check bool) "ndjson line is an object" true
        (String.length line > 1 && line.[0] = '{'))
    (String.split_on_char '\n' (String.trim nd))

let () =
  let qcheck tests = List.map QCheck_alcotest.to_alcotest tests in
  Alcotest.run "telemetry"
    [ ( "conservation",
        qcheck
          (List.map conservation_test makers
          @ List.map cache_partition_test makers) );
      ("zero-impact", qcheck (List.map root_invariance_test makers));
      ( "spans",
        [ Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "raise" `Quick test_span_on_raise;
          Alcotest.test_case "N domains x M spans" `Quick test_span_domains ] );
      ( "metering",
        [ Alcotest.test_case "hash counter" `Quick test_hash_metering;
          Alcotest.test_case "histogram accounting" `Quick test_histo_accounting;
          Alcotest.test_case "null sink" `Quick test_null_sink;
          Alcotest.test_case "json export" `Quick test_json_export ] ) ]
