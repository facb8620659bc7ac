(* Extension: domain sweep of the parallel commit pipeline.

   Bulk-load every structure through its [bulk_load] entry point at
   domains in {1, 2, 4, 8} and report wall-clock time, speedup over the
   sequential run, and the root hash — which must be byte-identical at
   every domain count (the pipeline only parallelizes the pure
   encode+hash phase; installation order is deterministic).  A fifth row
   sweeps the MBT incremental [batch ?pool] path, whose level-wise rebuild
   also writes each dirty node exactly once.

   One build at bench scale takes tens of milliseconds, so a single timing
   swings with the scheduler.  The sweep therefore runs several passes,
   visiting the widths in ascending order on even passes and descending
   order on odd ones (so drift over the run does not favour one end), with
   a full major GC before each build.  Each pass yields one speedup per
   row (the pass's width-1 time over its width-d time); the table and the
   sidecar report the median and the interquartile range over passes.

   Honesty note: the sidecar records [host_domains]
   (= Domain.recommended_domain_count ()) and [sha256_kernel], the
   compression kernel behind every node hash.  On a single-core host every
   width collapses to the calling domain plus idle workers, so speedups
   hover around 1x there; the determinism columns are meaningful
   regardless. *)

open Siri_core
module Store = Siri_store.Store
module Pool = Siri_parallel.Pool
module Hash = Siri_crypto.Hash
module Ycsb = Siri_workload.Ycsb
module Clock = Siri_benchkit.Clock
module Table = Siri_benchkit.Table
module Json = Siri_telemetry.Telemetry.Json

let domain_sweep = [ 1; 2; 4; 8 ]

(* A row of the sweep: its name, the operation count its throughput is
   reported over, and one build on a given pool returning the root. *)
type row = { structure : string; ops : int; build : Pool.t -> Hash.t }

let rows ~n entries =
  let bulk kind =
    { structure = Common.name kind;
      ops = n;
      build =
        (fun pool ->
          let inst = Common.make ~record_bytes:266 ~pool kind (Store.create ()) in
          (inst.Generic.bulk_load entries).Generic.root) }
  in
  let updates =
    List.filteri (fun i _ -> i mod 10 = 0) entries
    |> List.map (fun (k, _) -> Kv.Put (k, "updated-" ^ k))
  in
  let mbt_batch =
    { structure = "MBT-batch";
      ops = List.length updates;
      build =
        (fun pool ->
          let cfg = Siri_mbt.Mbt.config ~capacity:1_000 ~fanout:4 () in
          let t = Siri_mbt.Mbt.of_entries ~pool (Store.create ()) cfg entries in
          Siri_mbt.Mbt.root (Siri_mbt.Mbt.batch ~pool t updates)) }
  in
  List.map bulk [ Common.Kmpt; Common.Kmbt; Common.Kpos; Common.Kmvbt ]
  @ [ mbt_batch ]

(* Linear interpolation between the closest ranks of the sorted samples. *)
let quantile q xs =
  let a = Array.of_list (List.sort compare xs) in
  let pos = q *. float_of_int (Array.length a - 1) in
  let i = int_of_float pos in
  if i + 1 >= Array.length a then a.(i)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

(* [secs.(r).(d).(p)]: row [r] at the [d]-th width on pass [p]. *)
let sweep ~passes rows =
  let rows = Array.of_list rows and widths = Array.of_list domain_sweep in
  let secs =
    Array.map
      (fun _ -> Array.map (fun _ -> Array.make passes nan) widths)
      rows
  in
  let roots = Array.map (fun _ -> Hash.null) rows in
  for p = 0 to passes - 1 do
    let order = List.init (Array.length widths) Fun.id in
    let order = if p mod 2 = 0 then order else List.rev order in
    List.iter
      (fun d ->
        let pool = Pool.create ~domains:widths.(d) () in
        Array.iteri
          (fun r row ->
            Gc.full_major ();
            let t0 = Clock.now () in
            let root = row.build pool in
            secs.(r).(d).(p) <- Clock.now () -. t0;
            if Hash.is_null roots.(r) then roots.(r) <- root
            else if not (Hash.equal root roots.(r)) then
              failwith
                (Printf.sprintf "fig_parallel: %s root diverged at %d domains"
                   row.structure widths.(d)))
          rows;
        Pool.shutdown pool)
      order
  done;
  (secs, roots)

let run () =
  let n = Params.pick ~quick:30_000 ~full:200_000 in
  let passes = Params.pick ~quick:7 ~full:9 in
  let y = Ycsb.create ~seed:Params.seed ~n () in
  let rows = rows ~n (Ycsb.dataset y) in
  let secs, roots = sweep ~passes rows in
  let table = ref [] and json_rows = ref [] in
  List.iteri
    (fun r row ->
      List.iteri
        (fun d domains ->
          let speedups =
            List.init passes (fun p -> secs.(r).(0).(p) /. secs.(r).(d).(p))
          in
          let median_secs = quantile 0.5 (Array.to_list secs.(r).(d)) in
          let q1 = quantile 0.25 speedups
          and median = quantile 0.5 speedups
          and q3 = quantile 0.75 speedups in
          table :=
            [ row.structure;
              string_of_int domains;
              Printf.sprintf "%.1f" (float_of_int row.ops /. median_secs /. 1000.);
              Printf.sprintf "%.2fx" median;
              Printf.sprintf "%.2f-%.2f" q1 q3;
              "=" ]
            :: !table;
          json_rows :=
            Json.obj
              [ ("structure", Json.str row.structure);
                ("domains", Json.int domains);
                ("passes", Json.int passes);
                ("seconds_median", Json.num median_secs);
                ("speedup_median", Json.num median);
                ("speedup_q1", Json.num q1);
                ("speedup_q3", Json.num q3);
                ("speedup_iqr", Json.num (q3 -. q1));
                ("root", Json.str (Hash.to_hex roots.(r)));
                ("root_matches_sequential", Json.str "true") ]
            :: !json_rows)
        domain_sweep)
    rows;
  Table.print
    ~title:
      (Printf.sprintf
         "Parallel commit pipeline — bulk load of %d records, and MBT batch of \
          %d updates (median of %d passes; root must match at every width)"
         n (List.nth rows 4).ops passes)
    ~headers:[ "index"; "domains"; "kops/s"; "speedup"; "IQR"; "root" ]
    (List.rev !table);
  Metrics.write ~id:"parallel"
    (Json.obj
       [ ("experiment", Json.str "parallel");
         ("title", Json.str "domain sweep: parallel commit pipeline");
         ("records", Json.int n);
         ("passes", Json.int passes);
         ("host_domains", Json.int (Domain.recommended_domain_count ()));
         ("sha256_kernel", Json.str Siri_crypto.Sha256.kernel);
         ("rows", Json.arr (List.rev !json_rows)) ])
