(* See sharded.mli for the layout, commit protocol and recovery
   invariant. *)

module Kv = Siri_core.Kv
module Hash = Siri_crypto.Hash
module Generic = Siri_core.Generic
module Store = Siri_store.Store
module Engine = Siri_forkbase.Engine
module Durable = Siri_wal.Durable
module Wal = Siri_wal.Wal
module Pool = Siri_parallel.Pool
module Telemetry = Siri_telemetry.Telemetry
module Journal = Siri_wal.Journal
module Wire = Siri_codec.Wire
module Io = Siri_io.Io

type runner = [ `Pool | `Threads | `Inline ]

type head = {
  seq : int;
  composite : Hash.t;
  roots : Hash.t array;
}

type recovery = {
  last_seq : int;
  top_clamped_bytes : int;
  capped : int;
  shards : Durable.recovery array;
}

type top_entry = {
  e_seq : int;
  e_branch : string;
  e_composite : Hash.t;
  e_roots : Hash.t array;
}

type t = {
  dir : string;
  sync : bool;
  spec : Partition.t;
  runner : runner;
  pool : Pool.t option;  (* Some iff runner = `Pool and shards > 1 *)
  shards : Durable.t array;
  backend : Durable.backend;
  empty_index : unit -> Generic.t;
  generation : int;
  top : top_entry Journal.t;
  mutable next_seq : int;
  recovered : recovery;
}

let manifest_magic = "SIRISHARD1"

let manifest_path dir = Filename.concat dir "SHARDS"

(* Generation-scoped layout: generation 0 is the original flat layout
   ([dir/top], [dir/shard.i] — every pre-reshard directory), generation
   [g > 0] lives under [dir/gen.g/].  A reshard builds the next
   generation in [dir/gen.g.tmp], renames it into place, and flips the
   manifest — the manifest names the only live generation, so everything
   else under [dir] is sweepable garbage. *)
let gen_root dir g =
  if g = 0 then dir else Filename.concat dir (Printf.sprintf "gen.%d" g)

let staging_root dir g = Filename.concat dir (Printf.sprintf "gen.%d.tmp" g)
let top_path dir g = Filename.concat (gen_root dir g) "top"

let shard_dir dir g i =
  Filename.concat (gen_root dir g) (Printf.sprintf "shard.%d" i)

(* Every name under [dir] that the manifest does not name: interrupted
   atomic writes ([SHARDS], a [top] checkpoint), superseded generations
   after a reshard, and staging directories a crash left mid-build.
   Nothing here is ever the live state, so the sweep is unconditional
   and idempotent. *)
let stale ~generation name =
  Io.is_tmp name
  ||
  match Scanf.sscanf_opt name "gen.%d%s" (fun g rest -> (g, rest)) with
  | Some (g, "") -> g <> generation
  | Some (_, ".tmp") -> true
  | _ ->
      generation > 0
      && (name = "top"
         || Scanf.sscanf_opt name "shard.%d%s" (fun i rest -> (i, rest))
            |> Option.fold ~none:false ~some:(fun (_, rest) -> rest = ""))

let recovery t = t.recovered
let spec t = t.spec
let dir t = t.dir
let shards t = t.shards
let last_seq t = t.next_seq - 1
let sink t = Store.sink (Engine.store (Durable.engine t.shards.(0)))
let branches t = Engine.branches (Durable.engine t.shards.(0))

(* --- the composite journal ---------------------------------------------- *)

let top_codec =
  { Journal.magic = "SIRITOPJ1";
    encode =
      (fun e ->
        let w =
          Wire.Writer.create ~capacity:(64 + (32 * Array.length e.e_roots)) ()
        in
        Wire.Writer.varint w e.e_seq;
        Wire.Writer.str w e.e_branch;
        Wire.Writer.hash w e.e_composite;
        Wire.Writer.varint w (Array.length e.e_roots);
        Array.iter (fun r -> Wire.Writer.hash w r) e.e_roots;
        Wire.Writer.contents w);
    decode =
      (fun r ->
        let e_seq = Wire.Reader.varint r in
        let e_branch = Wire.Reader.str r in
        let e_composite = Wire.Reader.hash r in
        let n = Wire.Reader.varint r in
        if n < 1 || n > Partition.max_shards then raise Wire.Reader.Truncated;
        let e_roots = Array.init n (fun _ -> Wire.Reader.hash r) in
        { e_seq; e_branch; e_composite; e_roots }) }

let top_entry spec ~seq branch roots =
  { e_seq = seq; e_branch = branch; e_composite = Composite.root spec roots;
    e_roots = roots }

(* --- fan-out ------------------------------------------------------------- *)

let run_tasks t fs =
  match fs with
  | [] -> ()
  | [ f ] -> f ()
  | fs -> (
      match (t.runner, t.pool) with
      | `Pool, Some pool -> Pool.run pool (Array.of_list fs)
      | `Threads, _ ->
          (* First failure wins; every task still runs to completion so
             the handle's poisoning is at least quiescent. *)
          let failure = Atomic.make None in
          let wrap f () =
            try f ()
            with e ->
              let bt = Printexc.get_raw_backtrace () in
              ignore (Atomic.compare_and_set failure None (Some (e, bt)))
          in
          let ths = List.map (fun f -> Thread.create (wrap f) ()) fs in
          List.iter Thread.join ths;
          (match Atomic.get failure with
          | Some (e, bt) -> Printexc.raise_with_backtrace e bt
          | None -> ())
      | (`Pool | `Inline), _ -> List.iter (fun f -> f ()) fs)

(* --- reads --------------------------------------------------------------- *)

let shard_views t ~branch =
  Array.map (fun d -> Engine.index (Durable.engine d) branch) t.shards

let view t ~branch = Views.sharded t.spec (shard_views t ~branch)

let roots_of shards branch =
  Array.map
    (fun d -> (Engine.head (Durable.engine d) branch).Engine.index_root)
    shards

let shard_roots t branch = roots_of t.shards branch

let head t ~branch =
  let roots = shard_roots t branch in
  { seq = last_seq t; composite = Composite.root t.spec roots; roots }

let get t ~branch key =
  let i = Partition.shard_of_key t.spec key in
  Engine.get (Durable.engine t.shards.(i)) ~branch key

let get_many t ~branch keys =
  (* Same fan-out discipline as {!commit}: group per shard once, then
     dispatch the per-shard batched walks through the runner — each task
     touches only its own shard's store, so the domain-safety argument is
     the concurrent-commit one.  Results reassemble in input order. *)
  let vs = shard_views t ~branch in
  match Partition.split_keys t.spec keys with
  | [] -> []
  | [ (i, _) ] -> vs.(i).Generic.get_many keys
  | groups ->
      let groups = Array.of_list groups in
      let results = Array.make (Array.length groups) [] in
      run_tasks t
        (List.init (Array.length groups) (fun gi () ->
             let i, ks = groups.(gi) in
             results.(gi) <- vs.(i).Generic.get_many ks));
      Telemetry.incr (sink t) ~by:(Array.length groups) "shard.get_many.parts";
      let found = Hashtbl.create (List.length keys) in
      Array.iter
        (fun rs -> List.iter (fun (k, v) -> Hashtbl.replace found k v) rs)
        results;
      List.map (fun k -> (k, Option.join (Hashtbl.find_opt found k))) keys

let scan ?lo ?hi t ~branch = Views.scan ?lo ?hi (view t ~branch)

let prove_many t ~branch keys =
  Shard_proof.prove ~views:(shard_views t ~branch) t.spec keys

(* --- writes -------------------------------------------------------------- *)

let publish t ~seq ~branch =
  let e = top_entry t.spec ~seq branch (shard_roots t branch) in
  ignore (Journal.append t.top e : int);
  Telemetry.incr (sink t) "shard.publish";
  { seq; composite = e.e_composite; roots = e.e_roots }

let commit t ~branch ~message ops =
  (* Validate everywhere before journaling anywhere. *)
  Array.iter
    (fun d -> ignore (Engine.head (Durable.engine d) branch : Engine.commit))
    t.shards;
  let seq = t.next_seq in
  let groups =
    match Partition.split_ops t.spec ops with
    | [] -> [ (0, []) ]  (* an empty batch is still a journaled commit *)
    | gs -> gs
  in
  let s = sink t in
  Telemetry.with_span s "shard.commit" @@ fun () ->
  run_tasks t
    (List.map
       (fun (i, ops_i) () ->
         ignore
           (Durable.commit ~seq t.shards.(i) ~branch ~message ops_i
             : Engine.commit))
       groups);
  t.next_seq <- seq + 1;
  Telemetry.incr s "shard.commit";
  Telemetry.incr s ~by:(List.length groups) "shard.commit.parts";
  publish t ~seq ~branch

let fork t ~from name =
  let eng0 = Durable.engine t.shards.(0) in
  if List.mem name (Engine.branches eng0) then
    invalid_arg (Printf.sprintf "Sharded.fork: branch %S exists" name);
  ignore (Engine.head eng0 from : Engine.commit);
  let seq = t.next_seq in
  run_tasks t
    (Array.to_list
       (Array.map (fun d () -> Durable.fork ~seq d ~from name) t.shards));
  t.next_seq <- seq + 1;
  publish t ~seq ~branch:name

let checkpoint t =
  run_tasks t
    (Array.to_list (Array.map (fun d () -> Durable.checkpoint d) t.shards));
  (* Compact the composite journal: the per-branch post-state is all
     recovery needs, and every shard checkpoint above already captured
     sequence numbers up to [last_seq t]. *)
  Journal.rewrite t.top
    (List.map
       (fun b -> top_entry t.spec ~seq:(last_seq t) b (shard_roots t b))
       (branches t));
  Telemetry.incr (sink t) "shard.checkpoint"

let close t =
  Journal.close t.top;
  Array.iter Durable.close t.shards;
  match t.pool with Some p -> Pool.shutdown p | None -> ()

(* --- open / recover ------------------------------------------------------- *)

let read_manifest dir =
  let path = manifest_path dir in
  if not (Sys.file_exists path) then Ok None
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error msg -> Error (`Malformed msg)
    | content -> (
        match String.split_on_char '\n' content with
        | m :: spec_line :: rest when m = manifest_magic -> (
            match Partition.of_string spec_line with
            | Error msg -> Error (`Malformed ("shard manifest: " ^ msg))
            | Ok spec -> (
                (* Optional generation line, absent in pre-reshard
                   manifests (= generation 0, the flat layout). *)
                match rest with
                | gen_line :: _
                  when String.length gen_line >= 4
                       && String.sub gen_line 0 4 = "gen " -> (
                    match
                      int_of_string_opt
                        (String.sub gen_line 4 (String.length gen_line - 4))
                    with
                    | Some g when g >= 0 -> Ok (Some (spec, g))
                    | _ ->
                        Error (`Malformed "shard manifest: bad generation line"))
                | _ -> Ok (Some (spec, 0))))
        | _ -> Error (`Malformed "shard manifest: bad magic"))

let write_manifest ~sync dir spec ~generation =
  Io.replace ~sync (manifest_path dir) (fun oc ->
      Printf.fprintf oc "%s\n%s\ngen %d\n" manifest_magic
        (Partition.to_string spec) generation)

let array_result_map f arr =
  let n = Array.length arr in
  let rec go i acc =
    if i = n then Ok (Array.of_list (List.rev acc))
    else match f arr.(i) with Error _ as e -> e | Ok x -> go (i + 1) (x :: acc)
  in
  go 0 []

let exists dir = Sys.file_exists (manifest_path dir)

let ( let* ) = Result.bind

let open_ ?(sync = true) ?backend ?(runner = `Pool) ?spec ~dir ~empty_index ()
    =
  let* manifest = read_manifest dir in
  let* () =
    if manifest = None && Durable.detect dir <> None then
      (* Never write a second layout into a flat durable directory. *)
      Error (`Malformed (dir ^ ": a flat durable directory, not a sharded one"))
    else Durable.ensure_dir ~sync dir
  in
  let* spec, generation =
    match (manifest, spec) with
    | None, None -> Ok (Partition.make Partition.Hash ~shards:4, 0)
    | None, Some s -> Ok (s, 0)
    | Some (m, g), None -> Ok (m, g)
    | Some (m, g), Some s ->
        if m = s then Ok (m, g)
        else
          Error
            (`Malformed
               (Printf.sprintf
                  "partition spec %s requested but directory was created \
                   with %s"
                  (Partition.to_string s) (Partition.to_string m)))
  in
  if manifest = None then write_manifest ~sync dir spec ~generation;
  Io.sweep dir (stale ~generation);
  if generation > 0 then Io.sweep (gen_root dir generation) Io.is_tmp;
  (* 1. The composite journal names the last published sequence number —
     the cap every shard replays under. *)
  let tpath = top_path dir generation in
  let* { Journal.entries; valid_prefix; clamped_bytes = top_clamped_bytes; _ }
      =
    Journal.scan_file top_codec tpath
    |> Result.map_error (function
         | `Malformed msg -> `Malformed ("top journal: " ^ msg)
         | e -> e)
  in
  let last = List.fold_left (fun acc e -> max acc e.e_seq) 0 entries in
  (* 2. Recover every shard, rolled back to the published prefix. *)
  let* shards =
    array_result_map
      (fun i ->
        Durable.open_ ~sync ?backend ~replay_cap:last
          ~dir:(shard_dir dir generation i) ~empty_index:(empty_index ()) ()
        |> Result.map_error (function
             | `Malformed msg -> `Malformed (Printf.sprintf "shard %d: %s" i msg)
             | e -> e))
      (Array.init spec.Partition.shards Fun.id)
  in
  (* 3. Cross-shard consistency: one branch set, and per branch the
     recomputed composite must equal the last published one. *)
  let branch_sets =
    Array.map
      (fun d -> List.sort String.compare (Engine.branches (Durable.engine d)))
      shards
  in
  let* () =
    if Array.for_all (fun bs -> bs = branch_sets.(0)) branch_sets then Ok ()
    else Error (`Malformed "shards disagree on the branch set")
  in
  let published = Hashtbl.create 8 in
  List.iter (fun e -> Hashtbl.replace published e.e_branch e) entries;
  let mismatch =
    List.find_opt
      (fun branch ->
        match Hashtbl.find_opt published branch with
        | None -> false
        | Some e ->
            not
              (Hash.equal (Composite.root spec (roots_of shards branch))
                 e.e_composite))
      branch_sets.(0)
  in
  let ghost =
    Hashtbl.fold
      (fun b _ acc -> if List.mem b branch_sets.(0) then acc else b :: acc)
      published []
  in
  let* () =
    match (mismatch, ghost) with
    | Some branch, _ ->
        Error
          (`Malformed
             (Printf.sprintf
                "composite root mismatch on branch %S: shard state does not \
                 match the published composite"
                branch))
    | None, b :: _ ->
        Error
          (`Malformed (Printf.sprintf "published branch %S missing from shards" b))
    | None, [] -> Ok ()
  in
  (* Opening clamps a torn tail (or a torn header) off the file. *)
  let top = Journal.open_ ~sync ~valid_prefix top_codec tpath in
  let pool =
    match runner with
    | `Pool when spec.Partition.shards > 1 ->
        Some (Pool.create ~domains:spec.Partition.shards ())
    | _ -> None
  in
  let capped =
    Array.fold_left (fun acc d -> acc + (Durable.recovery d).Durable.capped) 0 shards
  in
  Ok
    { dir;
      sync;
      spec;
      runner;
      pool;
      shards;
      backend = Durable.backend shards.(0);
      empty_index;
      generation;
      top;
      next_seq = last + 1;
      recovered =
        { last_seq = last;
          top_clamped_bytes;
          capped;
          shards = Array.map Durable.recovery shards } }

(* --- online reshard ------------------------------------------------------- *)

exception Reshard_error of Wal.error

let generation t = t.generation

let reshard t ~shards:m =
  if m < 1 || m > Partition.max_shards then
    invalid_arg
      (Printf.sprintf "Sharded.reshard: shards %d not in [1, %d]" m
         Partition.max_shards);
  let s = sink t in
  let new_spec = Partition.make t.spec.Partition.scheme ~shards:m in
  let g' = t.generation + 1 in
  let staging = staging_root t.dir g' in
  let build () =
    Telemetry.with_span s "shard.reshard" @@ fun () ->
    Io.remove staging;
    Io.mkdir ~sync:t.sync staging;
    let open_new i =
      match
        Durable.open_ ~sync:t.sync ~backend:t.backend
          ~dir:(Filename.concat staging (Printf.sprintf "shard.%d" i))
          ~empty_index:(t.empty_index ()) ()
      with
      | Ok d -> d
      | Error e -> raise (Reshard_error e)
    in
    let new_shards = Array.init m open_new in
    let others = List.filter (fun b -> b <> "master") (branches t) in
    let ordered = "master" :: others in
    (* Stream every live entry out of the old shards through the new
       ordered read path, split by the new partition function. *)
    let buckets_of branch =
      let buckets = Array.make m [] in
      Seq.iter
        (fun (k, v) ->
          let i = Partition.shard_of_key new_spec k in
          buckets.(i) <- (k, v) :: buckets.(i))
        (scan t ~branch);
      Array.map List.rev buckets
    in
    let per_branch = List.map (fun b -> (b, buckets_of b)) ordered in
    (* One global sequence per logical operation, identical across the
       new shards (the same discipline as {!commit}/{!fork}): first the
       forks — non-master branches recreated from the still-empty master
       so every branch sits at version 0 when its bulk load lands — then
       one bulk commit per branch. *)
    let base = t.next_seq in
    let nforks = List.length others in
    run_tasks t
      (List.init m (fun i () ->
           let d = new_shards.(i) in
           List.iteri
             (fun j b -> Durable.fork ~seq:(base + j) d ~from:"master" b)
             others;
           List.iteri
             (fun j (b, buckets) ->
               ignore
                 (Durable.commit_bulk ~seq:(base + nforks + j) d ~branch:b
                    ~message:"reshard" buckets.(i)
                   : Engine.commit))
             per_branch;
           (* Compact each staging journal: the bulk records above are
              O(entries) bytes and the checkpoint snapshot replaces
              them. *)
           Durable.checkpoint d));
    let final_seq = base + nforks + List.length ordered - 1 in
    (* The staging composite journal: one record per branch at the final
       sequence number, exactly like a checkpoint compaction. *)
    Journal.write ~sync:t.sync top_codec (Filename.concat staging "top")
      (List.map
         (fun b -> top_entry new_spec ~seq:final_seq b (roots_of new_shards b))
         ordered);
    Array.iter Durable.close new_shards;
    (* Rename the fully-built generation into place, then flip the
       manifest — the atomic commit point.  Until the manifest replacement
       lands, the old layout is still the state and everything built here
       is sweepable staging. *)
    Io.rename ~sync:t.sync staging (gen_root t.dir g');
    write_manifest ~sync:t.sync t.dir new_spec ~generation:g'
  in
  match build () with
  | exception Reshard_error e ->
      Io.remove staging;
      Error e
  | exception Unix.Unix_error (e, fn, arg) ->
      Io.remove staging;
      Error
        (`Malformed
           (Printf.sprintf "reshard: %s(%s): %s" fn arg (Unix.error_message e)))
  | () ->
      Telemetry.incr s "shard.reshard";
      (* The old handle is superseded: reopen on the new layout, which
         also sweeps the old generation and re-verifies every branch's
         composite against the migrated shard roots. *)
      let sync = t.sync
      and backend = t.backend
      and runner = t.runner
      and dir = t.dir
      and empty_index = t.empty_index in
      close t;
      open_ ~sync ~backend ~runner ~dir ~empty_index ()
