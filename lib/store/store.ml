open Siri_crypto
module Io = Siri_io.Io
module Telemetry = Siri_telemetry.Telemetry
module Node_cache = Siri_readpath.Node_cache
module Proof_cache = Siri_readpath.Proof_cache
module Bloom = Siri_readpath.Bloom

exception Missing of Hash.t
exception Transient of Hash.t
exception Tampered of Hash.t

type node = { mutable bytes : string; children : Hash.t list }

(* The storage a store delegates its nodes to.  The store never names a
   concrete backend (the pack-file implementation lives in [lib/pack] and
   plugs in through these closures), which keeps the dependency graph
   acyclic: pack depends on store, not the reverse. *)
type backend = {
  backend_name : string;
  backend_read : Hash.t -> string option;
      (** Read of the node bytes; may raise {!Transient} or {!Tampered}. *)
  backend_children : Hash.t -> Hash.t list option;
      (** Read of the child hashes; raises like [backend_read]. *)
  backend_mem : Hash.t -> bool;
  backend_write : (Hash.t * string * Hash.t list) list -> unit;
      (** Append of fresh nodes, readable when the call returns. *)
  backend_flush : sync:bool -> unit;  (** Group fsync of buffered appends. *)
  backend_corrupt : unit -> Hash.t list;
      (** Integrity scan: hashes of records failing verification. *)
  backend_compact : live:Hash.Set.t -> Hash.t list;
      (** Drop everything outside [live]; returns the dropped hashes. *)
  backend_count : unit -> int;
  backend_bytes : unit -> int;
}

type stats = {
  puts : int;
  unique_nodes : int;
  stored_bytes : int;
  put_bytes : int;
  gets : int;
}

(* A node lives in exactly one place: the node table when no backend is
   attached, the backend otherwise — a backed store's table stays empty.
   The table and the filter registry are guarded by [lock]: the wire
   server reads them from session threads on several domains while the
   writer inserts, and an insert that resizes a table moves every binding
   — an unguarded read in that window can miss an entry that is present.
   Critical sections are single table operations (or one pass that never
   calls out of the store); backend reads and writes stay outside, since
   the backend guards its own state.  Stat counters are [Atomic]s,
   race-free without the lock. *)
type t = {
  tbl : node Hash.Table.t;
  lock : Mutex.t;
  puts : int Atomic.t;
  put_bytes : int Atomic.t;
  stored_bytes : int Atomic.t;
  gets : int Atomic.t;
  mutable get_observer : (Hash.t -> int -> unit) option;
  mutable put_observer : (Hash.t -> int -> unit) option;
  mutable read_gate : (Hash.t -> string -> unit) option;
  mutable sink : Telemetry.sink;
  cache : Node_cache.t;
  (* Memoized multiproofs keyed by (root, key set); cleared wholesale by
     the tamper primitives and gc, since a proof may embed any node. *)
  proof_cache : Proof_cache.t;
  (* Per-version negative-lookup filters, keyed by the exact root hash the
     filter was built for.  A version without a registered filter simply
     skips the short-circuit. *)
  filters : Bloom.t Hash.Table.t;
  mutable backend : backend option;
}

let create ?cache_bytes ?proof_cache_bytes () =
  { tbl = Hash.Table.create 4096;
    lock = Mutex.create ();
    puts = Atomic.make 0;
    put_bytes = Atomic.make 0;
    stored_bytes = Atomic.make 0;
    gets = Atomic.make 0;
    get_observer = None;
    put_observer = None;
    read_gate = None;
    sink = Telemetry.null;
    cache = Node_cache.create ?budget:cache_bytes ();
    proof_cache = Proof_cache.create ?budget:proof_cache_bytes ();
    filters = Hash.Table.create 16;
    backend = None }

let add_counter c by = ignore (Atomic.fetch_and_add c by : int)

let locked t f = Mutex.protect t.lock f

(* Hot-path lookups lock by hand: they cannot raise, and this keeps them
   free of the closure [Mutex.protect] would allocate. *)
let find_locked t tbl h =
  Mutex.lock t.lock;
  let v = Hash.Table.find_opt tbl h in
  Mutex.unlock t.lock;
  v

let find_node t h = find_locked t t.tbl h

(* Install [node] under [h] unless a node is already there; true if it
   was installed. *)
let add_if_absent t h node =
  locked t (fun () ->
      if Hash.Table.mem t.tbl h then false
      else begin
        Hash.Table.add t.tbl h node;
        true
      end)

let set_get_observer t obs = t.get_observer <- obs
let set_put_observer t obs = t.put_observer <- obs
let set_read_gate t gate = t.read_gate <- gate

let set_sink t sink =
  t.sink <- sink;
  Node_cache.set_sink t.cache sink;
  Proof_cache.set_sink t.proof_cache sink

let sink t = t.sink
let cache t = t.cache
let proof_cache t = t.proof_cache

(* --- backend ---------------------------------------------------------------- *)

(* Attaching moves the nodes the table holds — an engine's initial
   commit, an MBT's empty tree — into the backend, their one place from
   then on.  The table empties only once the backend serves them. *)
let set_backend t backend =
  Option.iter
    (fun b ->
      let nodes =
        locked t (fun () ->
            Hash.Table.fold (fun h n acc -> (h, n.bytes, n.children) :: acc) t.tbl [])
      in
      if nodes <> [] then b.backend_write (List.rev nodes))
    backend;
  t.backend <- backend;
  if Option.is_some backend then begin
    locked t (fun () -> Hash.Table.reset t.tbl);
    Atomic.set t.stored_bytes 0
  end

let backend_name t = Option.map (fun b -> b.backend_name) t.backend

(* --- read-path sidecars ----------------------------------------------------

   Cache coherence argument: nodes are content-addressed, so a cached
   decoding of hash [h] can only disagree with [get t h] if the stored
   bytes under [h] changed — which only the tamper primitives below and
   [gc]/[repair] can do.  Each of those invalidates the affected entries,
   so for every other operation the cache is coherent by construction. *)

let set_root_filter t root filter =
  locked t (fun () -> Hash.Table.replace t.filters root filter)

let root_filter t root = find_locked t t.filters root

let remove_root_filter t root =
  locked t (fun () -> Hash.Table.remove t.filters root)

(* Store a node in its one place unless it is there already — the table,
   or the backend, which serves it once [backend_write] returns; true if
   it was stored. *)
let install t h bytes children =
  match t.backend with
  | None ->
      let fresh = add_if_absent t h { bytes; children } in
      if fresh then add_counter t.stored_bytes (String.length bytes);
      fresh
  | Some b ->
      let fresh = not (b.backend_mem h) in
      if fresh then b.backend_write [ (h, bytes, children) ];
      fresh

let put t ?(children = []) bytes =
  let h = Hash.of_string bytes in
  let len = String.length bytes in
  add_counter t.puts 1;
  add_counter t.put_bytes len;
  let fresh = install t h bytes children in
  if Telemetry.enabled t.sink then begin
    Telemetry.incr t.sink "store.put";
    Telemetry.incr t.sink ~by:len "store.put_bytes";
    if fresh then begin
      Telemetry.incr t.sink "store.put_unique";
      Telemetry.incr t.sink ~by:len "store.put_unique_bytes"
    end
  end;
  (match t.put_observer with Some f -> f h len | None -> ());
  h

(* --- staged (parallel) writes ---------------------------------------------- *)

(* A staged node: encoded bytes plus their digest, computed away from the
   store — typically by a pool worker via [stage_quiet], whose hashing
   does not notify the digest observer.  The coordinating domain then
   replays the notifications in deterministic order ([note_staged]) and
   installs the nodes ([put_staged]), so the observable effects of a
   parallel commit are byte-for-byte those of the sequential one. *)
type staged = { digest : Hash.t; node_bytes : string; node_children : Hash.t list }

let stage ?(children = []) bytes =
  { digest = Hash.of_string bytes; node_bytes = bytes; node_children = children }

let stage_quiet ?(children = []) bytes =
  { digest = Hash.of_string_quiet bytes;
    node_bytes = bytes;
    node_children = children }

let note_staged staged =
  List.iter (fun s -> Hash.note_digest (String.length s.node_bytes)) staged

let put_staged t staged =
  (* One pass, one stats update, one telemetry flush.  Dedup accounting is
     per node and in list order, exactly as a sequence of [put]s: a
     duplicate later in the batch sees the earlier node already stored. *)
  let bytes l = List.fold_left (fun acc s -> acc + String.length s.node_bytes) 0 l in
  let fresh =
    match t.backend with
    | None ->
        let fresh =
          locked t (fun () ->
              List.filter
                (fun s ->
                  (not (Hash.Table.mem t.tbl s.digest))
                  && (Hash.Table.add t.tbl s.digest
                        { bytes = s.node_bytes; children = s.node_children };
                      true))
                staged)
        in
        add_counter t.stored_bytes (bytes fresh);
        fresh
    | Some b ->
        let seen = Hash.Table.create 16 in
        let fresh =
          List.filter
            (fun s ->
              (not (Hash.Table.mem seen s.digest || b.backend_mem s.digest))
              && (Hash.Table.replace seen s.digest ();
                  true))
            staged
        in
        if fresh <> [] then
          b.backend_write
            (List.map (fun s -> (s.digest, s.node_bytes, s.node_children)) fresh);
        fresh
  in
  (match t.put_observer with
  | Some f -> List.iter (fun s -> f s.digest (String.length s.node_bytes)) staged
  | None -> ());
  let count = List.length staged and total = bytes staged in
  add_counter t.puts count;
  add_counter t.put_bytes total;
  if Telemetry.enabled t.sink && count > 0 then begin
    Telemetry.incr t.sink ~by:count "store.put";
    Telemetry.incr t.sink ~by:total "store.put_bytes";
    if fresh <> [] then begin
      Telemetry.incr t.sink ~by:(List.length fresh) "store.put_unique";
      Telemetry.incr t.sink ~by:(bytes fresh) "store.put_unique_bytes"
    end
  end

let count_parallel t ~tasks ~nodes =
  if Telemetry.enabled t.sink then begin
    Telemetry.incr t.sink "parallel.maps";
    Telemetry.incr t.sink ~by:tasks "parallel.tasks";
    Telemetry.incr t.sink ~by:nodes "parallel.nodes"
  end

(* The install step of every parallel build: the tasks stage quietly on
   the workers, then the coordinator replays their digest notifications and
   installs their nodes in task order — the digest and put sequence of the
   same tasks run one after another.  The step is not metered: each build
   counts its maps with [count_parallel]. *)
let put_parallel t ~map task inputs =
  let results =
    Telemetry.with_span t.sink "commit.parallel" (fun () -> map task inputs)
  in
  let staged = List.concat_map snd (Array.to_list results) in
  note_staged staged;
  put_staged t staged;
  Array.map fst results

let put_batch t items =
  let staged = List.map (fun (bytes, children) -> stage ~children bytes) items in
  put_staged t staged;
  List.map (fun s -> s.digest) staged

(* A backed store's read: [read] is the backend's bytes or children read.
   A backend raising [Transient] or [Tampered] propagates to the caller
   exactly like a gated fault. *)
let cold t read h =
  match read h with
  | None -> raise Not_found
  | Some v ->
      Telemetry.incr t.sink "store.get.cold";
      v

let get t h =
  add_counter t.gets 1;
  let bytes =
    match t.backend with
    | None -> (
        match find_node t h with Some node -> node.bytes | None -> raise Not_found)
    | Some b -> cold t b.backend_read h
  in
  (match t.read_gate with Some gate -> gate h bytes | None -> ());
  (* Telemetry counts successful reads (past the fault gate), at the same
     point the deployment-simulation observer fires — so cache hit/miss
     accounting and [store.get] stay conservation-consistent. *)
  if Telemetry.enabled t.sink then begin
    Telemetry.incr t.sink "store.get";
    Telemetry.incr t.sink ~by:(String.length bytes) "store.get_bytes"
  end;
  (match t.get_observer with
  | Some f -> f h (String.length bytes)
  | None -> ());
  bytes

(* One decoded-node cache read for every index kind: each application
   declares its own payload constructor, so a kind only ever matches back
   nodes it decoded itself.  Decoded nodes are shared between readers, so
   a kind must never mutate one: the split-key kinds cache immutable
   views over the node bytes, and the others copy before editing. *)
module Decoded (N : sig
  type node

  val decode : string -> node
end) =
struct
  type Node_cache.repr += Cached of N.node

  let get t h =
    if not (Node_cache.enabled t.cache) then N.decode (get t h)
    else
      match Node_cache.find t.cache h with
      | Some (Cached node) -> node
      | _ ->
          let bytes = get t h in
          let node = N.decode bytes in
          Node_cache.insert t.cache h ~bytes:(String.length bytes) (Cached node);
          node
end

let find t h = match get t h with s -> Some s | exception Not_found -> None

let mem t h =
  match t.backend with
  | None -> Option.is_some (find_node t h)
  | Some b -> b.backend_mem h

let children t h =
  match t.backend with
  | None -> (
      match find_node t h with Some node -> node.children | None -> raise Not_found)
  | Some b -> cold t b.backend_children h

let size_of t h =
  match t.backend with
  | None -> (
      match find_node t h with
      | Some node -> String.length node.bytes
      | None -> raise Not_found)
  | Some b -> String.length (cold t b.backend_read h)

(* Snapshot under the lock, call [f] outside it: [f] may use the store. *)
let iter_nodes t f =
  let nodes =
    locked t (fun () -> Hash.Table.fold (fun _ node acc -> node :: acc) t.tbl [])
  in
  List.iter (fun node -> f node.bytes node.children) (List.rev nodes)

let stats t =
  let unique_nodes, stored_bytes =
    match t.backend with
    | None -> (locked t (fun () -> Hash.Table.length t.tbl), Atomic.get t.stored_bytes)
    | Some b -> (b.backend_count (), b.backend_bytes ())
  in
  { puts = Atomic.get t.puts;
    unique_nodes;
    stored_bytes;
    put_bytes = Atomic.get t.put_bytes;
    gets = Atomic.get t.gets }

let reset_counters t =
  Atomic.set t.puts 0;
  Atomic.set t.put_bytes 0;
  Atomic.set t.gets 0

let reachable_many t roots =
  let visited = ref Hash.Set.empty in
  let rec walk h =
    if (not (Hash.is_null h)) && not (Hash.Set.mem h !visited) then
      match children t h with
      | exception Not_found -> ()
      | cs ->
          visited := Hash.Set.add h !visited;
          List.iter walk cs
  in
  List.iter walk roots;
  !visited

let reachable t root = reachable_many t [ root ]

let bytes_of_set t set =
  Hash.Set.fold
    (fun h acc -> match size_of t h with n -> acc + n | exception _ -> acc)
    set 0

let gc t ~roots =
  let live = reachable_many t roots in
  let dead =
    match t.backend with
    | Some b -> b.backend_compact ~live
    | None ->
        locked t (fun () ->
            let dead =
              Hash.Table.fold
                (fun h _ acc -> if Hash.Set.mem h live then acc else h :: acc)
                t.tbl []
            in
            List.iter
              (fun h ->
                let n = Hash.Table.find t.tbl h in
                add_counter t.stored_bytes (-String.length n.bytes);
                Hash.Table.remove t.tbl h)
              dead;
            dead)
  in
  Node_cache.remove_many t.cache dead;
  (* Filters for roots that were collected describe versions that no longer
     exist; drop them so the registry cannot outgrow the store. *)
  let roots =
    locked t (fun () ->
        Hash.Table.fold (fun root _ acc -> root :: acc) t.filters [])
  in
  let stale = List.filter (fun root -> not (mem t root)) roots in
  locked t (fun () -> List.iter (Hash.Table.remove t.filters) stale);
  (* Any collected node may sit inside a memoized multiproof. *)
  Proof_cache.clear t.proof_cache;
  List.length dead

(* --- persistence ---------------------------------------------------------- *)

let magic = "SIRISTORE2"

(* Insert a node under an explicit key without re-hashing — the load path
   needs this so that a node whose recorded digest no longer matches its
   bytes keeps its original identity (and can then be found by [scrub]). *)
let add_raw t h bytes children =
  if add_if_absent t h { bytes; children } then
    add_counter t.stored_bytes (String.length bytes)

let save ?(sync = true) t path =
  Io.replace ~sync path (fun oc ->
      output_string oc magic;
      let write_varint n =
        let rec go n =
          if n < 0x80 then output_char oc (Char.chr n)
          else begin
            output_char oc (Char.chr (0x80 lor (n land 0x7F)));
            go (n lsr 7)
          end
        in
        go n
      in
      locked t @@ fun () ->
      write_varint (Hash.Table.length t.tbl);
      Hash.Table.iter
        (fun h node ->
          (* The key digest is recorded alongside the payload so that load
             can detect on-disk damage: any flipped or missing byte makes
             the re-hash disagree with the recorded digest. *)
          output_string oc (Hash.to_raw h);
          write_varint (String.length node.bytes);
          output_string oc node.bytes;
          write_varint (List.length node.children);
          List.iter (fun c -> output_string oc (Hash.to_raw c)) node.children)
        t.tbl)

let load ?(verify = true) path =
  Io.sweep (Filename.dirname path) (Io.is_tmp ~base:(Filename.basename path));
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let really n =
        try really_input_string ic n
        with End_of_file -> failwith "Store.load: truncated"
      in
      if (try really_input_string ic (String.length magic)
          with End_of_file -> "")
         <> magic
      then failwith "Store.load: bad magic";
      let read_varint () =
        let rec go shift acc =
          if shift > 56 then failwith "Store.load: malformed length";
          let b = input_byte ic in
          let acc = acc lor ((b land 0x7F) lsl shift) in
          if acc < 0 then failwith "Store.load: malformed length";
          if b land 0x80 = 0 then acc else go (shift + 7) acc
        in
        try go 0 0 with End_of_file -> failwith "Store.load: truncated"
      in
      let t = create () in
      let count = read_varint () in
      for _ = 1 to count do
        let h = Hash.of_raw (really Hash.size) in
        let len = read_varint () in
        let bytes = really len in
        let nchildren = read_varint () in
        let children =
          List.init nchildren (fun _ -> Hash.of_raw (really Hash.size))
        in
        if verify && not (Hash.equal (Hash.of_string bytes) h) then
          failwith
            (Printf.sprintf "Store.load: corrupt node %s (hash mismatch)"
               (Hash.short h));
        add_raw t h bytes children
      done;
      (* A damaged node count would leave bytes unread (or hit EOF above):
         anything after the declared nodes means the count lies. *)
      (match input_char ic with
      | _ -> failwith "Store.load: trailing bytes"
      | exception End_of_file -> ());
      t)

let load_checked ?verify path =
  match load ?verify path with
  | t -> Ok t
  | exception Failure msg -> Error (`Malformed msg)
  | exception Sys_error msg -> Error (`Malformed msg)
  | exception Invalid_argument msg -> Error (`Malformed msg)

(* --- tamper simulation ----------------------------------------------------- *)

(* Every tamper primitive changes (or removes) the bytes stored under a
   key while keeping the key — the one way a cached decoding could go
   stale — so each drops the cache entry for the touched hash. *)

let find_exn t h =
  match find_node t h with Some n -> n | None -> raise Not_found

let invalidate t h =
  Node_cache.remove t.cache h;
  Proof_cache.clear t.proof_cache

let flip t h ~pos ~mask =
  let n = find_exn t h in
  invalidate t h;
  if String.length n.bytes = 0 then n.bytes <- "\001"
  else begin
    let b = Bytes.of_string n.bytes in
    let i = pos mod Bytes.length b in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
    n.bytes <- Bytes.unsafe_to_string b
  end

let corrupt t h = flip t h ~pos:0 ~mask:0xFF
let corrupt_at t h ~pos = flip t h ~pos ~mask:0x01

let truncate_node t h ~keep =
  let n = find_exn t h in
  invalidate t h;
  let keep = max 0 (min keep (String.length n.bytes)) in
  add_counter t.stored_bytes (-(String.length n.bytes - keep));
  n.bytes <- String.sub n.bytes 0 keep

let remove_node t h =
  match
    locked t (fun () ->
        let n = Hash.Table.find_opt t.tbl h in
        Hash.Table.remove t.tbl h;
        n)
  with
  | None -> false
  | Some n ->
      invalidate t h;
      add_counter t.stored_bytes (-String.length n.bytes);
      true

let get_verified t h =
  match find t h with
  | None -> raise Not_found
  | Some bytes ->
      if Hash.equal (Hash.of_string bytes) h then Ok bytes
      else Error (`Tampered h)

(* --- integrity scrub & repair ---------------------------------------------- *)

type scrub_report = {
  scanned : int;
  corrupt : Hash.t list;
  dangling : (Hash.t * Hash.t) list;
  orphaned : Hash.t list;
}

let scrub_clean r = r.corrupt = [] && r.dangling = [] && r.orphaned = []

let scrub ?roots t =
  (* Reads [tbl] directly: integrity checking must see the raw stored
     payloads, bypassing any installed read gate or observer. *)
  let scanned = ref 0 in
  let corrupt = ref [] in
  let dangling = ref [] in
  locked t (fun () ->
      Hash.Table.iter
        (fun h node ->
          incr scanned;
          if not (Hash.equal (Hash.of_string node.bytes) h) then
            corrupt := h :: !corrupt;
          List.iter
            (fun c ->
              if (not (Hash.is_null c)) && not (Hash.Table.mem t.tbl c) then
                dangling := (h, c) :: !dangling)
            node.children)
        t.tbl);
  (* A backed store's table is empty: its nodes are audited by the
     backend's own scan (head digests plus content hashes). *)
  Option.iter
    (fun b ->
      scanned := !scanned + b.backend_count ();
      corrupt := b.backend_corrupt () @ !corrupt)
    t.backend;
  let orphaned =
    match roots with
    | None -> []
    | Some roots ->
        let live = reachable_many t roots in
        locked t (fun () ->
            Hash.Table.fold
              (fun h _ acc -> if Hash.Set.mem h live then acc else h :: acc)
              t.tbl [])
        |> List.sort Hash.compare
  in
  { scanned = !scanned;
    corrupt = List.sort Hash.compare !corrupt;
    dangling =
      List.sort
        (fun (a, b) (c, d) ->
          match Hash.compare a c with 0 -> Hash.compare b d | n -> n)
        !dangling;
    orphaned }

let pp_scrub_report ppf r =
  Format.fprintf ppf "scanned    : %d node%s@." r.scanned
    (if r.scanned = 1 then "" else "s");
  Format.fprintf ppf "corrupt    : %d@." (List.length r.corrupt);
  List.iter (fun h -> Format.fprintf ppf "  tampered %s@." (Hash.to_hex h)) r.corrupt;
  Format.fprintf ppf "dangling   : %d@." (List.length r.dangling);
  List.iter
    (fun (p, c) ->
      Format.fprintf ppf "  %s -> missing %s@." (Hash.short p) (Hash.to_hex c))
    r.dangling;
  Format.fprintf ppf "orphaned   : %d@." (List.length r.orphaned)

let repair t ~replica =
  let report = scrub t in
  (* Quarantine: a corrupt node is worse than a missing one — its bytes
     would fail verification anyway, and dropping it lets the re-graft
     below restore the authentic payload under the same key. *)
  List.iter (fun h -> ignore (remove_node t h)) report.corrupt;
  let grafted = ref 0 in
  iter_nodes replica (fun bytes children ->
      if install t (Hash.of_string bytes) bytes children then incr grafted);
  !grafted
