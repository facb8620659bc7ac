module Hash = Siri_crypto.Hash
module Wire = Siri_codec.Wire
module Store = Siri_store.Store
module Fault = Siri_fault.Fault
module Telemetry = Siri_telemetry.Telemetry
module Io = Siri_io.Io

module Int_map = Map.Make (Int)

type t = {
  dir : string;
  segment_target : int;
  retry_attempts : int;
  retry_backoff_s : float;
  sink : Telemetry.sink;
  index : Pack_index.entry Hash.Table.t;
  index_lock : Mutex.t;
      (* Session threads look records up while the single writer appends,
         and an insert that resizes [index] moves every binding.  Reader
         lookups and writer mutations take this lock; the writer's own
         folds need not, as nothing else mutates the table. *)
  lens : (int, int) Hashtbl.t;  (* live segment id -> valid length *)
  fds : Unix.file_descr Int_map.t Atomic.t;
      (* One read descriptor per live segment, opened eagerly at open and
         at roll and published as an immutable map: readers on any domain
         share them through the positioned [pread], with no lock and no
         seek.  Compaction swaps the map (it requires no concurrent
         readers). *)
  mutable generation : int;
  mutable active : int;
  mutable chan : Io.file;
  mutable active_len : int;
  mutable os_dirty : bool;
      (* bytes appended since the active segment's last fsync; writer
         only (every [append] flushes them to the OS before it returns) *)
  mutable sealed : int list;
      (* Rolled segments whose bytes are in the OS but not yet fsynced,
         newest first; the next [flush ~sync:true] fsyncs them.  Writer
         only. *)
  mutable index_dirty : bool;
  mutable bytes : int;  (* payload bytes live in the index *)
  mutable gate : Fault.io_gate option;
}

type recovery = {
  clamped_bytes : int;
  index_rebuilt : bool;
  adopted : int;
  swept : int;
}

let magic_len = String.length Segment.magic
let seg_path dir id = Filename.concat dir (Segment.filename id)
let index_path dir = Filename.concat dir "index"
let manifest_path dir = Filename.concat dir "manifest"

(* --- manifest ---------------------------------------------------------------- *)

let manifest_magic = "SIRIPACKMANIFEST1"

let encode_manifest ~generation ids =
  Sealed.encode ~magic:manifest_magic (fun w ->
      Wire.Writer.varint w generation;
      Wire.Writer.varint w (List.length ids);
      List.iter (Wire.Writer.varint w) (List.sort compare ids))

let decode_manifest =
  Sealed.decode ~magic:manifest_magic ~what:"manifest" (fun r ->
      let generation = Wire.Reader.varint r in
      let n = Wire.Reader.varint r in
      (generation, List.init n (fun _ -> Wire.Reader.varint r)))

(* The manifest flip is the commit point for every segment-set change, so
   it is always written atomically and fsynced through to the directory. *)
let save_manifest dir ~generation ids =
  let blob = encode_manifest ~generation ids in
  Io.replace ~sync:true (manifest_path dir) (fun oc -> output_string oc blob)

(* --- raw file helpers -------------------------------------------------------- *)

let read_whole path = In_channel.with_open_bin path In_channel.input_all

let read_from path ~off =
  In_channel.with_open_bin path (fun ic ->
      In_channel.seek ic (Int64.of_int off);
      In_channel.input_all ic)

let file_len path = (Unix.stat path).Unix.st_size

(* A fresh segment file is magic-only, fsynced, and its directory entry
   fsynced, all before the manifest names it — a crash in between leaves
   an orphan file the next open sweeps. *)
let create_segment_file dir id =
  Io.create ~sync:true (seg_path dir id) (fun oc ->
      output_string oc Segment.magic)

let open_append dir id = Io.open_append (seg_path dir id)

(* --- reads ------------------------------------------------------------------- *)

external pread_into : Unix.file_descr -> bytes -> int -> int -> int -> int
  = "siri_pack_pread"

let pread fd ~off ~len =
  let buf = Bytes.create len in
  let got = pread_into fd buf 0 len off in
  if got = len then Bytes.unsafe_to_string buf else Bytes.sub_string buf 0 got

let open_reader dir id = Unix.openfile (seg_path dir id) [ Unix.O_RDONLY ] 0

let open_readers dir ids =
  List.fold_left
    (fun m id -> Int_map.add id (open_reader dir id) m)
    Int_map.empty ids

let close_readers fds = Int_map.iter (fun _ fd -> Unix.close fd) fds

(* Each domain keeps one record buffer for its cold reads, so a read
   allocates the node bytes it returns and not the record around them.
   The buffer is held in a checkout slot, as [Sha256.with_scratch] holds
   its context: systhreads on one domain share DLS state and [pread]
   releases the runtime lock, so two threads reading on a bare shared
   buffer would verify one record and return the other's bytes.
   [Atomic.exchange] hands the buffer to exactly one thread at a time
   ([Bytes.empty] marks it checked out).  A thread that finds the slot
   empty, or a record longer than [keep_max], reads into a fresh buffer;
   a short buffer is replaced by one at least twice as long. *)
let keep_max = 1 lsl 20

let read_buffer : Bytes.t Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make (Bytes.create 4096))

let checkout slot len =
  if len > keep_max then Bytes.create len
  else
    let buf = Atomic.exchange slot Bytes.empty in
    let have = Bytes.length buf in
    if have >= len then buf
    else Bytes.create (min keep_max (max len (2 * have)))

let checkin slot buf = if Bytes.length buf <= keep_max then Atomic.set slot buf

(* Read one indexed record into the domain's buffer, verify it there and
   pass the verified blob to [f], which must copy out whatever it keeps:
   the buffer is reused once [f] returns.  [Segment.step] checks the
   head digest and then the content hash on the bytes as read, and the
   record must fill its index entry and carry the requested hash, so
   every failure mode — short read, flipped bit, truncated record — lands
   in [Store.Tampered], never a wrong read. *)
let with_record t ?(use_gate = true) h (e : Pack_index.entry) f =
  let verify blob ~limit =
    match Segment.step ~limit blob ~pos:0 with
    | Segment.Record r
      when r.next = e.len && Hash.equal_sub h blob ~off:r.hash_off ->
        f blob r
    | _ -> raise (Store.Tampered h)
  in
  let fd = Int_map.find e.seg (Atomic.get t.fds) in
  let slot = Domain.DLS.get read_buffer in
  let buf = checkout slot e.len in
  match
    let got = pread_into fd buf 0 e.len e.off in
    match t.gate with
    | Some g when use_gate ->
        let blob = Fault.gate_read g h (Bytes.sub_string buf 0 got) in
        verify blob ~limit:(String.length blob)
    | _ -> verify (Bytes.unsafe_to_string buf) ~limit:got
  with
  | v ->
      checkin slot buf;
      v
  | exception ex ->
      checkin slot buf;
      raise ex

let node_bytes blob (r : Segment.record) =
  String.sub blob r.bytes_off r.bytes_len

let find_entry t h =
  Mutex.lock t.index_lock;
  let e = Hash.Table.find_opt t.index h in
  Mutex.unlock t.index_lock;
  e

(* A verified read of [h] through [f], retried on transient faults. *)
let read t h e f =
  match
    Fault.with_retry ~attempts:t.retry_attempts ~backoff_s:t.retry_backoff_s
      ~sink:t.sink (fun () -> with_record t h e f)
  with
  | Ok v ->
      Telemetry.incr t.sink "pack.read";
      v
  | Error (`Transient _) -> raise (Store.Transient h)
  | Error (`Missing _) -> raise (Store.Missing h)
  | Error (`Tampered _ | `Malformed _) -> raise (Store.Tampered h)

let get t h =
  match find_entry t h with None -> None | Some e -> Some (read t h e node_bytes)

let children t h =
  match find_entry t h with
  | None -> None
  | Some e -> Some (read t h e Segment.children)

let mem t h = Option.is_some (find_entry t h)

let sorted_entries t =
  List.sort
    (fun (a, _) (b, _) -> Hash.compare a b)
    (Hash.Table.fold (fun h e acc -> (h, e) :: acc) t.index [])

let scrub t =
  List.filter_map
    (fun (h, e) ->
      match with_record t ~use_gate:false h e (fun _ _ -> ()) with
      | () -> None
      | exception _ -> Some h)
    (sorted_entries t)

(* --- writes ------------------------------------------------------------------ *)

let live_ids t = List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.lens [])

(* Sealed segments are fsynced oldest first through their read
   descriptors (fsync applies to the file, whatever the descriptor's
   mode), then the active one. *)
let flush ?(sync = true) t =
  Io.flush t.chan;
  if sync && t.sealed <> [] then begin
    let fds = Atomic.get t.fds in
    List.iter
      (fun id ->
        Io.fsync_fd (seg_path t.dir id) (Int_map.find id fds);
        Telemetry.incr t.sink "pack.fsync")
      (List.rev t.sealed);
    t.sealed <- []
  end;
  if sync && t.os_dirty then begin
    Io.fsync t.chan;
    t.os_dirty <- false;
    Telemetry.incr t.sink "pack.fsync"
  end

let sync_index t =
  if t.index_dirty then begin
    Hashtbl.replace t.lens t.active t.active_len;
    let segments = Hashtbl.fold (fun id len acc -> (id, len) :: acc) t.lens [] in
    Pack_index.save ~sync:true (index_path t.dir)
      (Pack_index.of_table ~segments t.index);
    t.index_dirty <- false;
    Telemetry.incr t.sink "pack.index.sync"
  end

let roll t =
  (* Seal the active segment without an fsync: push its bytes to the OS
     and leave the fsync to the next [flush ~sync:true], which every
     checkpoint, [close] and [compact] reach before anything that depends
     on those bytes.  Until then the journal is the durability point: a
     power loss that tears a sealed segment loses only nodes written
     since the last checkpoint, which reopen clamps and replay
     regenerates.  Then file-first/manifest-second, both fsynced, so the
     manifest never names a file that does not exist durably.  The
     successor's read descriptor is published before any of its records
     can be. *)
  Io.flush t.chan;
  if t.os_dirty then t.sealed <- t.active :: t.sealed;
  t.os_dirty <- false;
  Io.close t.chan;
  Hashtbl.replace t.lens t.active t.active_len;
  let id = t.active + 1 in
  create_segment_file t.dir id;
  t.generation <- t.generation + 1;
  save_manifest t.dir ~generation:t.generation (id :: live_ids t);
  Hashtbl.replace t.lens id magic_len;
  Atomic.set t.fds (Int_map.add id (open_reader t.dir id) (Atomic.get t.fds));
  t.active <- id;
  t.chan <- open_append t.dir id;
  t.active_len <- magic_len;
  Telemetry.incr t.sink "pack.roll"

(* Publish after flush: the call's records are pushed to the OS once, at
   the end, and only then enter the index, so a reader on any domain that
   finds an entry finds its bytes through its own descriptor.  Readers
   never flush the writer's channel, which would race [append]'s writes
   and could leave a record unflushed past a later fsync. *)
let append t nodes =
  let fresh = Hash.Table.create 8 in
  List.iter
    (fun (h, bytes, child_offsets) ->
      if not (Hash.Table.mem t.index h || Hash.Table.mem fresh h) then begin
        let head =
          Segment.record_head h ~bytes_len:(String.length bytes) child_offsets
        in
        let flen = String.length head + String.length bytes in
        if t.active_len + flen > t.segment_target && t.active_len > magic_len
        then roll t;
        Io.output t.chan head;
        Io.output t.chan bytes;
        Hash.Table.replace fresh h
          { Pack_index.seg = t.active; off = t.active_len; len = flen };
        t.active_len <- t.active_len + flen;
        t.bytes <- t.bytes + (flen - Segment.header_len);
        t.os_dirty <- true;
        Telemetry.incr t.sink "pack.append"
      end)
    nodes;
  if Hash.Table.length fresh > 0 then begin
    Io.flush t.chan;
    t.index_dirty <- true;
    Mutex.protect t.index_lock (fun () ->
        Hash.Table.iter (Hash.Table.replace t.index) fresh)
  end

(* --- open / recovery --------------------------------------------------------- *)

let scan_failure id pos =
  `Tampered (Printf.sprintf "%s: checksum mismatch at offset %d" (Segment.filename id) pos)

(* Clamp a segment's torn tail on disk.  A segment left shorter than the
   magic (a torn creation, or an empty file) clamps to empty and the
   magic is rewritten. *)
let clamp_segment dir id ~keep =
  if keep >= magic_len then Io.truncate (seg_path dir id) keep
  else create_segment_file dir id

(* Recover segment [id] from [covered] — the index's coverage, or 0 for a
   segment the index does not name or a rebuild — through the one
   segment scan: clamp a torn tail, record the valid length, and add the
   records found, the first occurrence of a hash winning as at append. *)
let recover_segment dir id ~covered ~index ~lens ~clamped ~added =
  match Segment.scan ~from:covered (read_from (seg_path dir id) ~off:covered) with
  | Error (`Tampered pos) -> Error (scan_failure id pos)
  | Ok s ->
      if s.clamped > 0 || s.length < magic_len then begin
        clamp_segment dir id ~keep:s.length;
        clamped := !clamped + s.clamped
      end;
      Hashtbl.replace lens id (max s.length magic_len);
      List.iter
        (fun (h, off, len) ->
          if not (Hash.Table.mem index h) then begin
            Hash.Table.replace index h { Pack_index.seg = id; off; len };
            incr added
          end)
        s.records;
      Ok ()

let load_index dir live =
  (* The persisted index is usable only if it describes a subset of the
     live segment set within each file's real length; anything else —
     missing, corrupt, or referencing a crashed compaction's segments —
     triggers a rebuild. *)
  match Pack_index.load (index_path dir) with
  | None -> None
  | Some idx ->
      let live_set = List.sort_uniq compare live in
      let ok_segs =
        List.for_all
          (fun (id, covered) ->
            List.mem id live_set
            && (covered = 0 || covered >= magic_len)
            && covered <= file_len (seg_path dir id))
          idx.segments
      in
      let covered_of id =
        match List.assoc_opt id idx.segments with Some c -> c | None -> 0
      in
      let ok_entries =
        ok_segs
        && List.for_all
             (fun (_, (e : Pack_index.entry)) ->
               List.mem e.seg live_set && e.off + e.len <= covered_of e.seg)
             idx.entries
      in
      if ok_entries then Some idx else None

(* A live segment must exist and carry this build's magic, or — shorter
   than the magic — a prefix of it.  The magic is checked here, up front,
   so a segment in a retired format, or short garbage, is refused by name
   whether or not a valid index covers it. *)
let live_segment_problem dir id =
  let path = seg_path dir id in
  let problem msg = Some (Segment.filename id ^ ": " ^ msg) in
  if not (Sys.file_exists path) then problem "missing live segment"
  else
    let prefix =
      In_channel.with_open_bin path (fun ic ->
          let n = min magic_len (Int64.to_int (In_channel.length ic)) in
          Option.value ~default:"" (In_channel.really_input_string ic n))
    in
    match Segment.check_magic prefix with
    | Ok () -> None
    | Error msg -> problem msg

let open_ ?(segment_target = 8 * 1024 * 1024) ?(retry_attempts = 3)
    ?(retry_backoff_s = 0.) ?(sink = Telemetry.null) dir =
  Io.mkdir ~sync:true dir;
  let fresh = not (Sys.file_exists (manifest_path dir)) in
  if fresh then begin
    create_segment_file dir 0;
    save_manifest dir ~generation:0 [ 0 ]
  end;
  match decode_manifest (read_whole (manifest_path dir)) with
  | Error (`Malformed msg) -> Error (`Tampered ("manifest: " ^ msg))
  | Ok (generation, ids) -> (
      let ids = List.sort compare ids in
      (* One sweep: segment files a crashed compaction or roll left
         behind, and the tmp files of an interrupted manifest or index
         replacement. *)
      let swept = ref 0 in
      Io.sweep dir (fun name ->
          match Segment.id_of_filename name with
          | Some id when not (List.mem id ids) ->
              incr swept;
              true
          | _ -> Io.is_tmp name);
      match List.find_map (live_segment_problem dir) ids with
      | Some msg -> Error (`Tampered msg)
      | None -> (
          (* Start from the persisted index when it is usable — a fresh
             pack has nothing to index — or from empty (a rebuild); then
             every live segment is scanned from what the index covers. *)
          let loaded =
            if fresh then Some { Pack_index.segments = []; entries = [] }
            else load_index dir ids
          in
          let index_rebuilt = Option.is_none loaded in
          if index_rebuilt then Telemetry.incr sink "pack.open.rebuild";
          let index = Hash.Table.create 1024 in
          let covered_of =
            match loaded with
            | None -> fun _ -> 0
            | Some idx ->
                List.iter (fun (h, e) -> Hash.Table.replace index h e) idx.entries;
                fun id -> Option.value ~default:0 (List.assoc_opt id idx.segments)
          in
          let lens = Hashtbl.create 8 in
          let clamped = ref 0 in
          let added = ref 0 in
          match
            List.fold_left
              (fun acc id ->
                Result.bind acc (fun () ->
                    recover_segment dir id ~covered:(covered_of id) ~index ~lens
                      ~clamped ~added))
              (Ok ()) ids
          with
          | Error e -> Error e
          | Ok () ->
              (* Records a rebuild finds are the index, not adopted. *)
              let adopted = if index_rebuilt then 0 else !added in
              let active = List.fold_left max 0 ids in
              let bytes =
                Hash.Table.fold
                  (fun _ (e : Pack_index.entry) acc ->
                    acc + e.len - Segment.header_len)
                  index 0
              in
              Telemetry.incr sink ~by:adopted "pack.open.adopted";
              if !clamped > 0 then
                Telemetry.incr sink ~by:!clamped "pack.clamp";
              let t =
                { dir;
                  segment_target = max (magic_len + 64) segment_target;
                  retry_attempts;
                  retry_backoff_s;
                  sink;
                  index;
                  index_lock = Mutex.create ();
                  lens;
                  fds = Atomic.make (open_readers dir ids);
                  generation;
                  active;
                  chan = open_append dir active;
                  active_len =
                    Option.value ~default:magic_len (Hashtbl.find_opt lens active);
                  os_dirty = false;
                  sealed = [];
                  index_dirty = index_rebuilt || adopted > 0 || !clamped > 0;
                  bytes;
                  gate = None }
              in
              Ok
                ( t,
                  { clamped_bytes = !clamped;
                    index_rebuilt;
                    adopted;
                    swept = !swept } )))

let close t =
  flush ~sync:true t;
  sync_index t;
  Io.close t.chan;
  close_readers (Atomic.exchange t.fds Int_map.empty)

let dir t = t.dir
let count t = Mutex.protect t.index_lock (fun () -> Hash.Table.length t.index)
let stored_bytes t = t.bytes
let segment_ids t = live_ids t
let set_read_gate t gate = t.gate <- gate

(* --- compaction -------------------------------------------------------------- *)

let compact ?(on_step = ignore) t ~live =
  let dropped =
    Hash.Table.fold
      (fun h _ acc -> if Hash.Set.mem h live then acc else h :: acc)
      t.index []
  in
  if dropped = [] then []
  else begin
    (* Everything the rewrite will copy must be durable first. *)
    flush ~sync:true t;
    on_step "begin";
    let old_ids = live_ids t in
    let base = 1 + List.fold_left max t.active old_ids in
    (* Keep locality: walk old segments in id order, records in offset
       order, carrying live records into fresh segments. *)
    let kept =
      List.concat_map
        (fun id ->
          List.sort
            (fun ((_, a) : _ * Pack_index.entry) (_, b) -> compare a.off b.off)
            (Hash.Table.fold
               (fun h (e : Pack_index.entry) acc ->
                 if e.seg = id && Hash.Set.mem h live then (h, e) :: acc
                 else acc)
               t.index []))
        old_ids
    in
    let new_index = Hash.Table.create (List.length kept) in
    let new_lens = ref [] in
    let cur = Buffer.create t.segment_target in
    let cur_id = ref base in
    Buffer.add_string cur Segment.magic;
    let write_segment () =
      let id = !cur_id in
      Io.create ~sync:true (seg_path t.dir id) (fun oc ->
          Buffer.output_buffer oc cur);
      new_lens := (id, Buffer.length cur) :: !new_lens;
      Buffer.clear cur;
      Buffer.add_string cur Segment.magic;
      incr cur_id
    in
    List.iter
      (fun (h, (e : Pack_index.entry)) ->
        (* Re-verify before carrying: compaction must not launder a
           corrupt record into a fresh segment.  Records are
           position-independent, so the verified bytes are copied
           verbatim. *)
        let record =
          with_record t ~use_gate:false h e (fun blob _ ->
              String.sub blob 0 e.len)
        in
        if Buffer.length cur + e.len > t.segment_target
           && Buffer.length cur > magic_len
        then write_segment ();
        Hash.Table.replace new_index h
          { Pack_index.seg = !cur_id; off = Buffer.length cur; len = e.len };
        Buffer.add_string cur record)
      kept;
    write_segment ();
    on_step "segments-written";
    let new_lens = !new_lens in
    Pack_index.save ~sync:true (index_path t.dir)
      (Pack_index.of_table ~segments:new_lens new_index);
    on_step "index-written";
    t.generation <- t.generation + 1;
    save_manifest t.dir ~generation:t.generation (List.map fst new_lens);
    on_step "manifest";
    (* Committed: everything from here is cleanup. *)
    Io.close t.chan;
    close_readers
      (Atomic.exchange t.fds (open_readers t.dir (List.map fst new_lens)));
    List.iter (fun id -> Io.remove (seg_path t.dir id)) old_ids;
    on_step "cleanup";
    Mutex.protect t.index_lock (fun () ->
        Hash.Table.reset t.index;
        Hash.Table.iter (fun h e -> Hash.Table.replace t.index h e) new_index);
    Hashtbl.reset t.lens;
    List.iter (fun (id, len) -> Hashtbl.replace t.lens id len) new_lens;
    let active = List.fold_left (fun acc (id, _) -> max acc id) 0 new_lens in
    t.active <- active;
    t.active_len <- List.assoc active new_lens;
    t.chan <- open_append t.dir active;
    t.os_dirty <- false;
    t.index_dirty <- false;
    t.bytes <-
      Hash.Table.fold
        (fun _ (e : Pack_index.entry) acc -> acc + e.len - Segment.header_len)
        t.index 0;
    Telemetry.incr t.sink "pack.compact";
    Telemetry.incr t.sink ~by:(List.length dropped) "pack.compact.dropped";
    List.sort Hash.compare dropped
  end

(* --- store backend ----------------------------------------------------------- *)

let backend t =
  { Store.backend_name = "pack";
    backend_read = (fun h -> get t h);
    backend_children = (fun h -> children t h);
    backend_mem = (fun h -> mem t h);
    backend_write = (fun nodes -> append t nodes);
    backend_flush = (fun ~sync -> flush ~sync t);
    backend_corrupt = (fun () -> scrub t);
    backend_compact = (fun ~live -> compact t ~live);
    backend_count = (fun () -> count t);
    backend_bytes = (fun () -> stored_bytes t) }

let attach t store = Store.set_backend store (Some (backend t))
