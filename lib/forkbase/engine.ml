open Siri_crypto
open Siri_core
module Store = Siri_store.Store
module Wire = Siri_codec.Wire
module Fault = Siri_fault.Fault
module Telemetry = Siri_telemetry.Telemetry
module Io = Siri_io.Io

type commit = {
  id : Hash.t;
  parent : Hash.t option;
  index_root : Hash.t;
  message : string;
  version : int;
}

type t = {
  store : Store.t;
  heads : (string, commit) Hashtbl.t;
  reopen : Hash.t -> Generic.t;
}

let encode_commit ~parent ~index_root ~message ~version =
  let w = Wire.Writer.create () in
  Wire.Writer.u8 w 0xC0;
  (* distinct tag space from index nodes *)
  Wire.Writer.hash w (match parent with Some p -> p | None -> Hash.null);
  Wire.Writer.hash w index_root;
  Wire.Writer.str w message;
  Wire.Writer.varint w version;
  Wire.Writer.contents w

let decode_commit id bytes =
  let r = Wire.Reader.of_string bytes in
  let tag = Wire.Reader.u8 r in
  if tag <> 0xC0 then invalid_arg "Engine: not a commit object";
  let parent =
    let h = Wire.Reader.hash r in
    if Hash.is_null h then None else Some h
  in
  let index_root = Wire.Reader.hash r in
  let message = Wire.Reader.str r in
  let version = Wire.Reader.varint r in
  { id; parent; index_root; message; version }

let store_commit t ~parent ~index_root ~message ~version =
  let bytes = encode_commit ~parent ~index_root ~message ~version in
  (* Keep history and data alive under GC roots: the index root sits at
     byte 33 and the parent at byte 1, each named when non-null. *)
  let named h off = if Hash.is_null h then [] else [ off ] in
  let child_offsets =
    Array.of_list
      (named index_root 33
      @ match parent with Some p -> named p 1 | None -> [])
  in
  let id = Store.put t.store ~child_offsets bytes in
  { id; parent; index_root; message; version }

let create ~empty_index =
  let t =
    { store = empty_index.Generic.store;
      heads = Hashtbl.create 8;
      reopen = empty_index.Generic.reopen }
  in
  let initial =
    store_commit t ~parent:None ~index_root:empty_index.Generic.root
      ~message:"initial" ~version:0
  in
  Hashtbl.replace t.heads "master" initial;
  t

let store t = t.store

let branches t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.heads [] |> List.sort compare

let head t name =
  match Hashtbl.find_opt t.heads name with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Engine: no branch %S" name)

let fork t ~from name =
  if Hashtbl.mem t.heads name then
    invalid_arg (Printf.sprintf "Engine.fork: branch %S exists" name);
  Hashtbl.replace t.heads name (head t from)

let history t name =
  let rec walk c acc =
    let acc = c :: acc in
    match c.parent with
    | None -> List.rev acc
    | Some p -> walk (decode_commit p (Store.get t.store p)) acc
  in
  walk (head t name) []

let index t name = t.reopen (head t name).index_root

let checkout t id =
  Telemetry.with_span (Store.sink t.store) "engine.checkout" (fun () ->
      t.reopen (decode_commit id (Store.get t.store id)).index_root)

(* One commit on [branch]: [build] makes the next version from the head
   and its index, and the head advances.  The span encloses the build, so
   per-index [<index>.batch] probes nest inside [engine.commit] in the
   trace. *)
let commit_with t ~branch ~message build =
  Telemetry.with_span (Store.sink t.store) "engine.commit" (fun () ->
      let h = head t branch in
      let inst' = build h (t.reopen h.index_root) in
      let c =
        store_commit t ~parent:(Some h.id) ~index_root:inst'.Generic.root
          ~message ~version:(h.version + 1)
      in
      Hashtbl.replace t.heads branch c;
      c)

let commit t ~branch ~message ops =
  commit_with t ~branch ~message (fun _ inst -> inst.Generic.batch ops)

let commit_bulk t ~branch ~message entries =
  commit_with t ~branch ~message (fun h inst ->
      (* A bulk load replaces the version's content wholesale; only the
         initial (empty) version can take the fast canonical-build path
         without discarding existing records. *)
      if h.version = 0 then inst.Generic.bulk_load entries
      else inst.Generic.batch (List.map (fun (k, v) -> Kv.Put (k, v)) entries))

let get t ~branch key = Generic.get (index t branch) key
let get_many t ~branch keys = (index t branch).Generic.get_many keys
let scan ?lo ?hi t ~branch = Generic.scan ?lo ?hi (index t branch)

let range_count ?lo ?hi ?limit t ~branch =
  Generic.range_count ?lo ?hi ?limit (index t branch)
let put t ~branch key value = commit t ~branch ~message:"put" [ Kv.Put (key, value) ]

let diff_branches t a b =
  let ia = index t a in
  ia.Generic.diff (head t b).index_root

let commit_of t id = decode_commit id (Store.get t.store id)

let merge_base t a b =
  (* Every branch descends from the engine's initial commit, so walking A's
     ancestry into a set and scanning B's ancestry always terminates on a
     common commit. *)
  let ancestors = Hash.Table.create 16 in
  let rec collect c =
    Hash.Table.replace ancestors c.id ();
    match c.parent with None -> () | Some p -> collect (commit_of t p)
  in
  collect (head t a);
  let rec find c =
    if Hash.Table.mem ancestors c.id then c
    else
      match c.parent with
      | Some p -> find (commit_of t p)
      | None -> c
  in
  find (head t b)

module Smap = Map.Make (String)

let merge_ops t ~into ~from ~policy =
  let base = merge_base t into from in
  let base_index = t.reopen base.index_root in
  let to_map diffs =
    List.fold_left
      (fun m (d : Kv.diff_entry) -> Smap.add d.key d.right m)
      Smap.empty diffs
  in
  (* d.right is the branch's current state for a key that changed since the
     base ([None] = deleted on that branch). *)
  let left_changes = to_map (base_index.Generic.diff (head t into).index_root) in
  let right_changes = to_map (base_index.Generic.diff (head t from).index_root) in
  let conflicts = ref [] in
  let ops = ref [] in
  Smap.iter
    (fun key right_state ->
      match Smap.find_opt key left_changes with
      | None -> (
          (* Only the right branch touched this record: take its change. *)
          match right_state with
          | Some v -> ops := Kv.Put (key, v) :: !ops
          | None -> ops := Kv.Del key :: !ops)
      | Some left_state ->
          if left_state <> right_state then begin
            (* Both sides changed it since they diverged. *)
            match policy with
            | Kv.Prefer_left -> ()
            | Kv.Prefer_right -> (
                match right_state with
                | Some v -> ops := Kv.Put (key, v) :: !ops
                | None -> ops := Kv.Del key :: !ops)
            | Kv.Resolve f -> (
                match (left_state, right_state) with
                | Some lv, Some rv -> ops := Kv.Put (key, f key lv rv) :: !ops
                | Some _, None -> ops := Kv.Del key :: !ops
                | None, Some v -> ops := Kv.Put (key, v) :: !ops
                | None, None -> ())
            | Kv.Fail_on_conflict ->
                conflicts :=
                  { Kv.key;
                    left_value = Option.value ~default:"" left_state;
                    right_value = Option.value ~default:"" right_state }
                  :: !conflicts
          end)
    right_changes;
  match !conflicts with
  | _ :: _ as cs -> Error (List.rev cs)
  | [] -> Ok (List.rev !ops)

let merge_message ~into ~from = Printf.sprintf "merge %s into %s" from into

(* The resolved write batch, committed like any other: a durable merge
   (journaled as its ops) replays to the same commit. *)
let merge_branches t ~into ~from ~policy =
 Telemetry.with_span (Store.sink t.store) "engine.merge" @@ fun () ->
  Result.map
    (commit t ~branch:into ~message:(merge_message ~into ~from))
    (merge_ops t ~into ~from ~policy)

(* --- optimistic transactions ---------------------------------------------- *)

type txn = {
  engine : t;
  branch : string;
  snapshot : commit;
  view : Generic.t;
  mutable reads : (Kv.key * Kv.value option) list;
  mutable writes : Kv.op list;  (* newest first *)
}

let begin_txn t ~branch =
  let snapshot = head t branch in
  { engine = t;
    branch;
    snapshot;
    view = t.reopen snapshot.index_root;
    reads = [];
    writes = [] }

let txn_get txn key =
  (* Read-your-writes, then the snapshot. *)
  let rec from_writes = function
    | [] -> None
    | Kv.Put (k, v) :: _ when k = key -> Some (Some v)
    | Kv.Del k :: _ when k = key -> Some None
    | _ :: rest -> from_writes rest
  in
  match from_writes txn.writes with
  | Some answer -> answer
  | None ->
      let v = txn.view.Generic.lookup key in
      txn.reads <- (key, v) :: txn.reads;
      v

let txn_put txn key value = txn.writes <- Kv.Put (key, value) :: txn.writes
let txn_del txn key = txn.writes <- Kv.Del key :: txn.writes

let commit_txn txn ~message =
  let t = txn.engine in
  let current = head t txn.branch in
  let validate () =
    if Hash.equal current.id txn.snapshot.id then []
    else begin
      (* Re-check every key this transaction observed or writes against the
         branch's current version. *)
      let now = t.reopen current.index_root in
      let read_conflicts =
        List.filter_map
          (fun (k, seen) ->
            if now.Generic.lookup k <> seen then Some k else None)
          txn.reads
      in
      let snapshot_view = txn.view in
      let write_conflicts =
        List.filter_map
          (fun op ->
            let k = Kv.key_of_op op in
            if now.Generic.lookup k <> snapshot_view.Generic.lookup k then Some k
            else None)
          txn.writes
      in
      List.sort_uniq String.compare (read_conflicts @ write_conflicts)
    end
  in
  match validate () with
  | _ :: _ as ks -> Error (`Conflict ks)
  | [] ->
      (* Apply writes in submission order (oldest first). *)
      Ok (commit t ~branch:txn.branch ~message (List.rev txn.writes))

(* --- persistence -------------------------------------------------------------- *)

let heads_path path = path ^ ".heads"

let save_heads ?(sync = true) t path =
  Io.replace ~sync path (fun oc ->
      Hashtbl.iter
        (fun name c -> Printf.fprintf oc "%s\t%s\n" name (Hash.to_hex c.id))
        t.heads)

let save ?sync t path =
  Store.save ?sync t.store path;
  save_heads ?sync t (heads_path path)

let load_heads t path =
  (* Restore branch heads from the TSV at [path], resolving each commit
     through the engine's store (which may fall through to a cold
     backend).  Returns the skipped (ghost) branch names. *)
  Io.sweep (Filename.dirname path) (Io.is_tmp ~base:(Filename.basename path));
  let skipped = ref [] in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try
        while true do
          let line = input_line ic in
          match String.index_opt line '\t' with
          | None -> if line <> "" then failwith "Engine.load: malformed heads"
          | Some i ->
              let name = String.sub line 0 i in
              let hex = String.sub line (i + 1) (String.length line - i - 1) in
              let id = Hash.of_hex hex in
              (* The store file and the heads file are written as two
                 separate renames, so a crash between them can leave a head
                 naming a commit the store never received.  Such a branch is
                 unrecoverable from this snapshot alone: clamp it (drop the
                 head) rather than abort the whole load with [Not_found]. *)
              (match decode_commit id (Store.get t.store id) with
              | c -> Hashtbl.replace t.heads name c
              | exception (Not_found | Invalid_argument _ | Wire.Reader.Truncated)
                ->
                  skipped := name :: !skipped)
        done
      with End_of_file -> ());
  if Hashtbl.length t.heads = 0 then
    failwith
      (if !skipped = [] then "Engine.load: no branches"
       else "Engine.load: every head references a commit absent from the store");
  List.rev !skipped

let load ~empty_index path =
  (* Graft the loaded nodes into the caller's (fresh) store so that the
     index kind's closures — which are bound to that store — resolve
     against them, then restore the branch heads. *)
  let loaded = Store.load path in
  let target = empty_index.Generic.store in
  Store.iter_nodes loaded (fun bytes child_offsets ->
      ignore (Store.put target ~child_offsets bytes));
  Store.reset_counters target;
  let t =
    { store = target;
      heads = Hashtbl.create 8;
      reopen = empty_index.Generic.reopen }
  in
  ignore (load_heads t (heads_path path) : string list);
  t

let load_checked ~empty_index path =
  match load ~empty_index path with
  | t -> Ok t
  | exception Failure msg -> Error (`Malformed msg)
  | exception Sys_error msg -> Error (`Malformed msg)
  | exception Invalid_argument msg -> Error (`Malformed msg)
  | exception Wire.Reader.Truncated ->
      Error (`Malformed "Engine.load: truncated commit object")

(* --- history management ------------------------------------------------------ *)

let verify_history t name =
  let rec walk c count =
    (* The commit object itself. *)
    match Store.get_verified t.store c.id with
    | Error (`Tampered h) -> Error (`Tampered h)
    | Ok _ -> (
        (* Every index node of this version. *)
        let pages = Store.reachable t.store c.index_root in
        let tampered =
          Hash.Set.fold
            (fun h acc ->
              match acc with
              | Some _ -> acc
              | None -> (
                  match Store.get_verified t.store h with
                  | Ok _ -> None
                  | Error (`Tampered h) -> Some h))
            pages None
        in
        match tampered with
        | Some h -> Error (`Tampered h)
        | None -> (
            match c.parent with
            | None -> Ok (count + 1)
            | Some p -> walk (commit_of t p) (count + 1)))
  in
  walk (head t name) 0

let prune t ~keep =
  if keep < 1 then invalid_arg "Engine.prune: keep must be >= 1";
  (* Rebuild each branch's chain from its newest [keep] commits, grounding
     the oldest retained commit (parent = None). *)
  Hashtbl.iter
    (fun name hd ->
      let rec take c n acc =
        if n = 0 then List.rev acc
        else
          match c.parent with
          | None -> List.rev (c :: acc)
          | Some p -> take (commit_of t p) (n - 1) (c :: acc)
      in
      let retained = take hd keep [] in
      (* Oldest first; re-commit with rewritten parents. *)
      let rebuilt =
        List.fold_left
          (fun parent c ->
            let parent_id =
              match (parent : commit option) with
              | None -> None
              | Some p -> Some p.id
            in
            Some
              (store_commit t ~parent:parent_id ~index_root:c.index_root
                 ~message:c.message ~version:c.version))
          None (List.rev retained)
      in
      match rebuilt with
      | Some new_head -> Hashtbl.replace t.heads name new_head
      | None -> ())
    (Hashtbl.copy t.heads);
  let roots = Hashtbl.fold (fun _ c acc -> c.id :: acc) t.heads [] in
  Store.gc t.store ~roots

(* --- graceful degradation ----------------------------------------------------- *)

(* Reads against a faulty store: bounded retries absorb transient failures,
   and whatever remains surfaces as a typed error instead of an untyped
   exception aborting the caller. *)

let get_checked ?attempts t ~branch key =
  Fault.retrying ?attempts (fun () -> get t ~branch key)

let history_checked ?attempts t name =
  Fault.retrying ?attempts (fun () -> history t name)

let dedup_ratio t =
  let roots =
    Hashtbl.fold (fun _ c acc -> c.index_root :: acc) t.heads []
    |> List.filter (fun h -> not (Hash.is_null h))
  in
  Dedup.dedup_ratio t.store roots

let total_versions t =
  List.fold_left
    (fun acc name -> acc + List.length (history t name))
    0 (branches t)
