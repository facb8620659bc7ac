(* Extension (not a paper figure): time and allocation per in-process
   POS-Tree commit and per cold get, on the dataset shape the siri-serve
   benchmark (perfbench/) preloads — 100k keys, 60-byte values — with
   commits of 16 zipf(0.9) puts scattered over the key space.

     dune exec bench/main.exe -- alloc --seed 13

   A commit is [Pos_tree.batch] into an in-memory store (node rebuild,
   SHA-256, store install; no WAL, no pack).  A cold get is a point lookup
   on a pack-backed store, which keeps no node in memory, with no node
   cache, so every node on the path is a segment read, a content hash and
   a parse.  The seed drives the operation streams only; the dataset is
   fixed.  Words come from [Gc.counters]: minor words allocated, and
   major words (direct major allocation plus promotions). *)

module Store = Siri_store.Store
module Pos_tree = Siri_pos.Pos_tree
module Generic = Siri_core.Generic
module Kv = Siri_core.Kv
module Rng = Siri_core.Rng
module Zipf = Siri_workload.Zipf
module Pack = Siri_pack.Pack
module Table = Siri_benchkit.Table
module Clock = Siri_benchkit.Clock

let seed = ref 13
let preload_keys = 100_000
let value_len = 60
let batch_puts = 16
let commits = 3_000
let cold_gets = 2_000

let key n = Printf.sprintf "key%08d" n

let pad rng prefix =
  let n = value_len - String.length prefix in
  if n <= 0 then prefix else prefix ^ Rng.string_alnum rng n

(* Preloaded key [i] is key number [2i]; odd numbers are absent. *)
let dataset () =
  let rng = Rng.create 15 in
  List.init preload_keys (fun i -> (key (2 * i), pad rng (Printf.sprintf "p%06d-" i)))

let scatter rank = ((rank * 7919) + 12345) mod preload_keys

type cost = { us_p50 : float; us_mean : float; minor : float; major : float }

(* Run [op] [n] times; per-op wall time (median and mean) and mean words. *)
let measure n op =
  let times = Array.make n 0.0 in
  Gc.full_major ();
  let minor0, _, major0 = Gc.counters () in
  for i = 0 to n - 1 do
    let t0 = Clock.now () in
    op i;
    times.(i) <- Clock.now () -. t0
  done;
  let minor1, _, major1 = Gc.counters () in
  let total = Array.fold_left ( +. ) 0.0 times in
  Array.sort Float.compare times;
  let per x = x /. Float.of_int n in
  { us_p50 = times.(n / 2) *. 1e6;
    us_mean = per total *. 1e6;
    minor = per (minor1 -. minor0);
    major = per (major1 -. major0) }

let commit_cost entries =
  let store = Store.create ~cache_bytes:0 ~proof_cache_bytes:0 () in
  let cfg = Pos_tree.config () in
  let t = ref (Pos_tree.of_sorted store cfg entries) in
  let rng = Rng.create ((!seed * 1_000_003) + 11) in
  let zipf = Zipf.create ~n:preload_keys ~theta:0.9 in
  let batches =
    Array.init commits (fun c ->
        List.init batch_puts (fun _ ->
            let i = scatter (Zipf.sample zipf rng) in
            Kv.Put (key (2 * i), pad rng (Printf.sprintf "w%d.%d-" c i))))
  in
  measure commits (fun c -> t := Pos_tree.batch !t batches.(c))

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let cold_get_cost entries =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "siri_alloc_bench.%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let pack =
    match Pack.open_ dir with
    | Ok (p, _) -> p
    | Error (`Tampered msg) -> failwith ("alloc bench: " ^ msg)
  in
  Fun.protect ~finally:(fun () -> Pack.close pack) @@ fun () ->
  let store = Store.create ~cache_bytes:0 ~proof_cache_bytes:0 () in
  Pack.attach pack store;
  let g = Pos_tree.generic (Pos_tree.of_sorted store (Pos_tree.config ()) entries) in
  let rng = Rng.create ((!seed * 1_000_003) + 7919 + 11) in
  let keys =
    Array.init cold_gets (fun _ ->
        let i = Rng.int rng preload_keys in
        if Rng.float rng < 0.1 then key ((2 * i) + 1) else key (2 * i))
  in
  measure cold_gets (fun i -> ignore (g.Generic.lookup keys.(i)))

let run () =
  let entries = dataset () in
  let c = commit_cost entries in
  let g = cold_get_cost entries in
  let row name n x =
    [ name; string_of_int n; Printf.sprintf "%.0f" x.us_p50; Printf.sprintf "%.0f" x.us_mean;
      Printf.sprintf "%.0f" x.minor; Printf.sprintf "%.0f" x.major ]
  in
  Table.print
    ~title:
      (Printf.sprintf "Time and allocation per op (seed %d, %d keys, %s)" !seed
         preload_keys Siri_crypto.Sha256.kernel)
    ~headers:[ "op"; "ops"; "us p50"; "us mean"; "minor words"; "major words" ]
    [ row "commit (16 puts)" commits c; row "cold get" cold_gets g ]
