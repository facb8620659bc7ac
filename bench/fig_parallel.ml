(* Extension: domain sweep of the parallel commit pipeline.

   Bulk-load every structure through its [bulk_load] entry point at
   domains in {1, 2, 4, 8} and report wall-clock time, speedup over the
   sequential run, and the root hash — which must be byte-identical at
   every domain count (the pipeline only parallelizes the pure
   encode+hash phase; installation order is deterministic).  A second
   panel sweeps the MBT incremental [batch ?pool] path, whose level-wise
   rebuild also writes each dirty node exactly once.

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

(* Best-of-[reps] wall clock, to damp scheduler noise at bench scale. *)
let time_best ?(reps = 3) f =
  let best = ref infinity and result = ref None in
  for _ = 1 to reps do
    let t0 = Clock.now () in
    let r = f () in
    let dt = Clock.now () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (!best, Option.get !result)

let bulk_panel ~n entries =
  let kinds = [ Common.Kmpt; Common.Kmbt; Common.Kpos; Common.Kmvbt ] in
  let rows = ref [] and json_rows = ref [] in
  List.iter
    (fun kind ->
      let baseline = ref nan and root1 = ref Hash.null in
      List.iter
        (fun domains ->
          let pool = Pool.create ~domains () in
          let secs, root =
            time_best (fun () ->
                let store = Store.create () in
                let inst =
                  Common.make ~record_bytes:266 ~pool kind store
                in
                (Generic.load_sorted inst entries).Generic.root)
          in
          Pool.shutdown pool;
          if domains = 1 then begin
            baseline := secs;
            root1 := root
          end;
          let same_root = Hash.equal root !root1 in
          if not same_root then
            failwith
              (Printf.sprintf "fig_parallel: %s root diverged at %d domains"
                 (Common.name kind) domains);
          let speedup = !baseline /. secs in
          rows :=
            [ Common.name kind;
              string_of_int domains;
              Printf.sprintf "%.1f" (float_of_int n /. secs /. 1000.);
              Printf.sprintf "%.2fx" speedup;
              (if same_root then "=" else "DIVERGED") ]
            :: !rows;
          json_rows :=
            Json.obj
              [ ("structure", Json.str (Common.name kind));
                ("domains", Json.int domains);
                ("seconds", Json.num secs);
                ("speedup", Json.num speedup);
                ("root", Json.str (Hash.to_hex root));
                ("root_matches_sequential", Json.str (string_of_bool same_root))
              ]
            :: !json_rows)
        domain_sweep)
    kinds;
  Table.print
    ~title:
      (Printf.sprintf
         "Parallel commit pipeline — bulk load, %d records (root must match \
          at every width)"
         n)
    ~headers:[ "index"; "domains"; "kops/s"; "speedup"; "root" ]
    (List.rev !rows);
  List.rev !json_rows

let mbt_batch_panel ~n entries =
  let ops =
    List.filteri (fun i _ -> i mod 10 = 0) entries
    |> List.map (fun (k, _) -> Kv.Put (k, "updated-" ^ k))
  in
  let rows = ref [] and json_rows = ref [] in
  let baseline = ref nan and root1 = ref Hash.null in
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains () in
      let secs, root =
        time_best (fun () ->
            let store = Store.create () in
            let cfg = Siri_mbt.Mbt.config ~capacity:1_000 ~fanout:4 () in
            let t =
              Siri_mbt.Mbt.of_entries ~pool store cfg entries
            in
            Siri_mbt.Mbt.root (Siri_mbt.Mbt.batch ~pool t ops))
      in
      Pool.shutdown pool;
      if domains = 1 then begin
        baseline := secs;
        root1 := root
      end;
      if not (Hash.equal root !root1) then
        failwith
          (Printf.sprintf "fig_parallel: MBT batch root diverged at %d domains"
             domains);
      let speedup = !baseline /. secs in
      rows :=
        [ string_of_int domains;
          Printf.sprintf "%.1f" (float_of_int (List.length ops) /. secs /. 1000.);
          Printf.sprintf "%.2fx" speedup ]
        :: !rows;
      json_rows :=
        Json.obj
          [ ("structure", Json.str "MBT-batch");
            ("domains", Json.int domains);
            ("seconds", Json.num secs);
            ("speedup", Json.num speedup);
            ("root", Json.str (Hash.to_hex root));
            ("root_matches_sequential", Json.str "true") ]
        :: !json_rows)
    domain_sweep;
  Table.print
    ~title:
      (Printf.sprintf
         "Parallel commit pipeline — MBT incremental batch (%d dirty keys of \
          %d)"
         (List.length ops) n)
    ~headers:[ "domains"; "kops/s"; "speedup" ]
    (List.rev !rows);
  List.rev !json_rows

let run () =
  let n = Params.pick ~quick:30_000 ~full:200_000 in
  let y = Ycsb.create ~seed:Params.seed ~n () in
  let entries = Ycsb.dataset y in
  let bulk = bulk_panel ~n entries in
  let batch = mbt_batch_panel ~n entries in
  Metrics.write ~id:"parallel"
    (Json.obj
       [ ("experiment", Json.str "parallel");
         ("title", Json.str "domain sweep: parallel commit pipeline");
         ("records", Json.int n);
         ("host_domains", Json.int (Domain.recommended_domain_count ()));
         ("sha256_kernel", Json.str Siri_crypto.Sha256.kernel);
         ("rows", Json.arr (bulk @ batch)) ])
