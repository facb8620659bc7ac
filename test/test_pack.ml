(* Crash-safe log-structured pack-file store backend.

   The oracle everywhere is exact-prefix recovery with zero wrong reads:
   damage a pack directory — truncate a segment or the offset index at
   EVERY byte offset, flip seeded-random bits, kill a compaction at each
   of its steps — then reopen and assert that every record either reads
   back byte-identical, is cleanly absent, or is refused as [`Tampered].
   A rebuilt offset index must be byte-identical to the persisted one. *)

open Siri_core
module Store = Siri_store.Store
module Hash = Siri_crypto.Hash
module Pack = Siri_pack.Pack
module Segment = Siri_pack.Segment
module Pack_index = Siri_pack.Pack_index
module Fault = Siri_fault.Fault
module Engine = Siri_forkbase.Engine
module Wal = Siri_wal.Wal
module Durable = Siri_wal.Durable
module Telemetry = Siri_telemetry.Telemetry

(* --- scratch directories ---------------------------------------------------- *)

let dir_counter = ref 0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_dir name f =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "siri-pack-%d-%s-%d" (Unix.getpid ()) name !dir_counter)
  in
  rm_rf d;
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let open_exn ?segment_target ?retry_attempts ?sink dir =
  match Pack.open_ ?segment_target ?retry_attempts ?sink dir with
  | Ok tr -> tr
  | Error (`Tampered msg) -> Alcotest.failf "Pack.open_: %s" msg

(* Distinct nodes with a deterministic payload per index. *)
let node i =
  let bytes = Printf.sprintf "pack-node-%04d:%s" i (String.make (16 + (i mod 23)) (Char.chr (65 + (i mod 26)))) in
  (Hash.of_string bytes, bytes, [])

let nodes n = List.init n node

let seg_path dir id = Filename.concat dir (Segment.filename id)
let index_path dir = Filename.concat dir "index"

(* Assert the zero-wrong-reads contract: every hash in [written] either
   reads back byte-identical, is absent, or raises [`Tampered]; the set
   that reads back must equal [expected] when given. *)
let check_reads ?expected p written =
  let readable = ref [] in
  List.iter
    (fun (h, bytes, children) ->
      match Pack.get p h with
      | Some b ->
          Alcotest.(check string) "payload survives verbatim" bytes b;
          Alcotest.(check (option int)) "children survive"
            (Some (List.length children))
            (Option.map List.length (Pack.children p h));
          readable := h :: !readable
      | None -> ()
      | exception Store.Tampered _ -> ())
    written;
  match expected with
  | None -> ()
  | Some exp ->
      let got = List.sort Hash.compare !readable in
      let exp = List.sort Hash.compare exp in
      Alcotest.(check (list string))
        "readable set is the exact expected prefix"
        (List.map Hash.to_hex exp) (List.map Hash.to_hex got)

let file_len path = (Unix.stat path).Unix.st_size

(* Every entry under [dir] with its bytes, for byte-for-byte comparison. *)
let tree dir =
  let rec walk rel acc =
    let p = Filename.concat dir rel in
    if Sys.is_directory p then
      Array.fold_left
        (fun acc n -> walk (Filename.concat rel n) acc)
        ((rel ^ "/", "") :: acc) (Sys.readdir p)
    else (rel, read_file p) :: acc
  in
  List.sort compare (walk "" [])

(* Recreate [dir] as [tree] saw it: one crash image, restored before each
   damage. *)
let restore_tree dir image =
  rm_rf dir;
  List.iter
    (fun (rel, blob) ->
      let p = Filename.concat dir rel in
      if String.ends_with ~suffix:"/" rel then Unix.mkdir p 0o755
      else write_file p blob)
    image

(* [tree] with each file's bytes as a digest, for readable failures. *)
let tree_digest dir =
  List.map (fun (rel, blob) -> (rel, Hash.to_hex (Hash.of_string blob))) (tree dir)

(* --- roundtrip -------------------------------------------------------------- *)

let test_roundtrip () =
  with_dir "roundtrip" @@ fun dir ->
  let written = nodes 150 in
  let p, r = open_exn ~segment_target:2048 dir in
  Alcotest.(check bool) "fresh open is not a rebuild" false r.Pack.index_rebuilt;
  Pack.append p written;
  Pack.flush p;
  Alcotest.(check int) "count" 150 (Pack.count p);
  Alcotest.(check bool) "rolled into several segments" true
    (List.length (Pack.segment_ids p) > 1);
  (* dedup: re-appending is a no-op *)
  let before = Pack.stored_bytes p in
  Pack.append p written;
  Alcotest.(check int) "content-addressed dedup" before (Pack.stored_bytes p);
  check_reads p written ~expected:(List.map (fun (h, _, _) -> h) written);
  Pack.close p;
  (* clean reopen: O(index), no rescan *)
  let p2, r2 = open_exn ~segment_target:2048 dir in
  Alcotest.(check bool) "clean reopen uses the persisted index" false
    r2.Pack.index_rebuilt;
  Alcotest.(check int) "no tail adoption needed" 0 r2.Pack.adopted;
  check_reads p2 written ~expected:(List.map (fun (h, _, _) -> h) written);
  Alcotest.(check (list string)) "scrub is clean" []
    (List.map Hash.to_hex (Pack.scrub p2));
  Pack.close p2

(* Un-synced tail: append more after the last index sync, reopen, and the
   tail must be adopted by scanning — not lost, not a full rebuild. *)
let test_tail_adoption () =
  with_dir "tail-adopt" @@ fun dir ->
  let first = nodes 20 in
  let p, _ = open_exn dir in
  Pack.append p first;
  Pack.flush p;
  Pack.sync_index p;
  let covered = file_len (seg_path dir 0) in
  (* more appends, flushed to the file but the index never re-synced *)
  let extra = List.init 7 (fun i -> node (1000 + i)) in
  Pack.append p extra;
  Pack.flush p;
  (* abandon without close: the persisted index now under-covers the file *)
  let image = tree dir in
  let p2, r2 = open_exn dir in
  Alcotest.(check bool) "not a full rebuild" false r2.Pack.index_rebuilt;
  Alcotest.(check int) "tail records adopted" 7 r2.Pack.adopted;
  check_reads p2 (first @ extra)
    ~expected:(List.map (fun (h, _, _) -> h) (first @ extra));
  Pack.close p2;
  (* A flip behind the coverage, in the first tail record's head, is
     refused by file and offset, index or not. *)
  List.iter
    (fun with_index ->
      restore_tree dir image;
      if not with_index then Sys.remove (index_path dir);
      let b = Bytes.of_string (read_file (seg_path dir 0)) in
      let pos = covered + Segment.header_len + 3 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
      write_file (seg_path dir 0) (Bytes.to_string b);
      match Pack.open_ dir with
      | Ok _ -> Alcotest.fail "a flip past the index coverage was opened"
      | Error (`Tampered msg) ->
          Alcotest.(check string)
            (Printf.sprintf "tail flip (index: %b)" with_index)
            (Printf.sprintf "%s: checksum mismatch at offset %d"
               (Segment.filename 0) covered)
            msg)
    [ true; false ]

(* --- truncation at every byte offset ----------------------------------------- *)

let test_segment_truncation_every_offset () =
  with_dir "trunc-seg" @@ fun dir ->
  let written = nodes 18 in
  let p, _ = open_exn dir in
  Pack.append p written;
  Pack.close p;
  let pristine_seg = read_file (seg_path dir 0) in
  let pristine_idx = read_file (index_path dir) in
  let boundaries =
    match Segment.scan pristine_seg with
    | Ok s -> List.map (fun (h, off, len) -> (h, off + len)) s.Segment.records
    | Error _ -> Alcotest.fail "pristine segment must scan"
  in
  for cut = 0 to String.length pristine_seg - 1 do
    write_file (seg_path dir 0) (String.sub pristine_seg 0 cut);
    write_file (index_path dir) pristine_idx;
    let p, r = open_exn dir in
    (* index coverage exceeds the file: rebuild, clamping the torn tail *)
    Alcotest.(check bool)
      (Printf.sprintf "cut@%d rebuilds" cut)
      true r.Pack.index_rebuilt;
    let expected =
      List.filter_map (fun (h, e) -> if e <= cut then Some h else None) boundaries
    in
    let writtens =
      List.filter (fun (h, _, _) -> List.exists (Hash.equal h) expected) written
    in
    Alcotest.(check int)
      (Printf.sprintf "cut@%d keeps the exact record prefix" cut)
      (List.length expected) (Pack.count p);
    check_reads p written ~expected:(List.map (fun (h, _, _) -> h) writtens);
    Pack.close p
  done

let test_index_truncation_every_offset () =
  with_dir "trunc-idx" @@ fun dir ->
  let written = nodes 15 in
  let p, _ = open_exn dir in
  Pack.append p written;
  Pack.close p;
  let pristine_idx = read_file (index_path dir) in
  let all = List.map (fun (h, _, _) -> h) written in
  for cut = 0 to String.length pristine_idx - 1 do
    write_file (index_path dir) (String.sub pristine_idx 0 cut);
    let p, r = open_exn dir in
    Alcotest.(check bool)
      (Printf.sprintf "idx-cut@%d rebuilds" cut)
      true r.Pack.index_rebuilt;
    Alcotest.(check int)
      (Printf.sprintf "idx-cut@%d loses nothing" cut)
      0 r.Pack.clamped_bytes;
    check_reads p written ~expected:all;
    Pack.close p
  done;
  (* missing index entirely *)
  Sys.remove (index_path dir);
  let p, r = open_exn dir in
  Alcotest.(check bool) "missing index rebuilds" true r.Pack.index_rebuilt;
  check_reads p written ~expected:all;
  Pack.close p

(* Appends after a torn-tail clamp extend the valid prefix. *)
let test_append_after_clamp () =
  with_dir "append-after-clamp" @@ fun dir ->
  let written = nodes 10 in
  let p, _ = open_exn dir in
  Pack.append p written;
  Pack.close p;
  let blob = read_file (seg_path dir 0) in
  write_file (seg_path dir 0) (String.sub blob 0 (String.length blob - 5));
  let p2, r2 = open_exn dir in
  Alcotest.(check bool) "tail clamped" true (r2.Pack.clamped_bytes > 0);
  let fresh = node 777 in
  Pack.append p2 [ fresh ];
  Pack.close p2;
  let p3, r3 = open_exn dir in
  Alcotest.(check bool) "reopen after clamp+append is clean" false
    r3.Pack.index_rebuilt;
  let kept = List.filteri (fun i _ -> i < 9) written in
  check_reads p3 (fresh :: written)
    ~expected:(List.map (fun (h, _, _) -> h) (fresh :: kept));
  Pack.close p3

(* --- sealed segments: a roll defers the outgoing segment's fsync -------------- *)

(* (hash, record end) of every record of a segment blob, in file order. *)
let record_ends blob =
  match Segment.scan blob with
  | Ok s -> List.map (fun (h, off, len) -> (h, off + len)) s.Segment.records
  | Error _ -> Alcotest.fail "pristine segment must scan"

(* Rolls fsync nothing: the sealed segments wait for the next sync flush,
   which fsyncs each of them and the active segment exactly once. *)
let test_roll_defers_fsync () =
  with_dir "roll-fsync" @@ fun dir ->
  let sink = Telemetry.create () in
  let counter = Telemetry.counter sink in
  let written = nodes 60 in
  let p, _ = open_exn ~segment_target:1024 ~sink dir in
  List.iter (fun n -> Pack.append p [ n ]) written;
  let rolls = counter "pack.roll" in
  Alcotest.(check bool) (Printf.sprintf "%d rolls >= 3" rolls) true (rolls >= 3);
  Alcotest.(check int) "no fsync across the rolls" 0 (counter "pack.fsync");
  Pack.flush p;
  Alcotest.(check int) "sync flush: every sealed segment + the active one"
    (rolls + 1) (counter "pack.fsync");
  Pack.flush p;
  Alcotest.(check int) "a second sync flush fsyncs nothing" (rolls + 1)
    (counter "pack.fsync");
  Pack.close p;
  let p, _ = open_exn ~segment_target:1024 dir in
  check_reads p written ~expected:(List.map (fun (h, _, _) -> h) written);
  Pack.close p

(* Power loss after rolls with no sync flush: any segment written since
   the last sync — a sealed one, not only the last — may come back with a
   torn tail while its successors keep their records.  Cut each such
   segment at every byte offset from its synced length to its end, the
   others intact: reopen clamps exactly the torn bytes, keeps the cut
   segment's record prefix and every other record, and reads back
   verbatim with a clean scrub — with the offset index and without it,
   leaving byte-identical directories behind. *)
let test_sealed_segment_power_loss () =
  with_dir "sealed-cut" @@ fun dir ->
  let segment_target = 1024 in
  let before = nodes 12 in
  let p, _ = open_exn ~segment_target dir in
  Pack.append p before;
  Pack.flush p;
  Pack.sync_index p;
  let synced =
    List.map (fun id -> (id, file_len (seg_path dir id))) (Pack.segment_ids p)
  in
  let active_at_sync = List.fold_left max 0 (List.map fst synced) in
  let after = List.init 24 (fun i -> node (2000 + i)) in
  List.iter (fun n -> Pack.append p [ n ]) after;
  let ids = Pack.segment_ids p in
  Alcotest.(check bool) "appends rolled at least twice" true
    (List.length ids - List.length synced >= 2);
  (* Abandoned without a sync flush or close: the power-loss image. *)
  let image = tree dir in
  let written = before @ after in
  let ends =
    List.map (fun id -> (id, record_ends (read_file (seg_path dir id)))) ids
  in
  let magic_len = String.length Segment.magic in
  let synced_len id =
    Option.value (List.assoc_opt id synced) ~default:magic_len
  in
  let reopen ~with_index id blob cut =
    restore_tree dir image;
    write_file (seg_path dir id) (String.sub blob 0 cut);
    if not with_index then Sys.remove (index_path dir);
    let what =
      Printf.sprintf "seg %d cut@%d%s" id cut
        (if with_index then "" else " (no index)")
    in
    let p, r =
      match Pack.open_ ~segment_target dir with
      | Ok pr -> pr
      | Error (`Tampered msg) -> Alcotest.failf "%s: `Tampered %s" what msg
    in
    let kept =
      List.concat_map
        (fun (id', es) ->
          List.filter_map
            (fun (h, e) -> if id' <> id || e <= cut then Some h else None)
            es)
        ends
    in
    let prefix_end =
      List.fold_left
        (fun acc (_, e) -> if e <= cut then max acc e else acc)
        magic_len (List.assoc id ends)
    in
    Alcotest.(check int) (what ^ ": clamps exactly the torn bytes")
      (cut - prefix_end) r.Pack.clamped_bytes;
    Alcotest.(check int) (what ^ ": file clamped to the record prefix")
      prefix_end
      (file_len (seg_path dir id));
    Alcotest.(check int) (what ^ ": exact record count") (List.length kept)
      (Pack.count p);
    List.iter
      (fun (h, bytes, _) ->
        let expect = List.exists (Hash.equal h) kept in
        match Pack.get p h with
        | Some b when expect ->
            Alcotest.(check string) (what ^ ": verbatim") bytes b
        | None when not expect -> ()
        | Some _ -> Alcotest.failf "%s: a cut record reads back" what
        | None -> Alcotest.failf "%s: a kept record is absent" what
        | exception Store.Tampered _ ->
            Alcotest.failf "%s: `Tampered on read" what)
      written;
    Alcotest.(check (list string)) (what ^ ": scrub is clean") []
      (List.map Hash.to_hex (Pack.scrub p));
    Pack.close p;
    tree_digest dir
  in
  List.iter
    (fun id ->
      let blob = read_file (seg_path dir id) in
      for cut = synced_len id to String.length blob do
        (* The index is advisory: with or without it, the one segment
           scan leaves the same directory behind. *)
        Alcotest.(check (list (pair string string)))
          (Printf.sprintf "seg %d cut@%d: the index changes no byte" id cut)
          (reopen ~with_index:true id blob cut)
          (reopen ~with_index:false id blob cut)
      done)
    (List.filter (fun id -> id >= active_at_sync) ids)

(* A live segment shorter than its magic gets one verdict, index or not:
   short garbage is refused naming the segment, and a prefix of the
   magic — a torn creation, down to an empty file — clamps to empty and
   takes appends again.  The index names only
   segment 0, so with it present the newest segment is scanned from 0
   as a segment the index does not name; without it, by the rebuild. *)
let test_short_segment_verdict () =
  with_dir "short-seg" @@ fun dir ->
  let small = nodes 2 in
  let p, _ = open_exn dir in
  List.iter (fun n -> Pack.append p [ n ]) small;
  Pack.close p;
  let big i =
    let bytes = Printf.sprintf "short-seg-%d:%s" i (String.make 200 'x') in
    (Hash.of_string bytes, bytes, [])
  in
  let extra = List.init 6 big in
  let p, _ = open_exn ~segment_target:1024 dir in
  List.iter (fun n -> Pack.append p [ n ]) extra;
  Alcotest.(check (list int)) "two rolls" [ 0; 1; 2 ] (Pack.segment_ids p);
  (* Abandoned without a close. *)
  let image = tree dir in
  let kept =
    List.concat_map (fun id -> List.map fst (record_ends (read_file (seg_path dir id)))) [ 0; 1 ]
  in
  List.iter
    (fun with_index ->
      let shape = if with_index then "with the index" else "without the index" in
      let damage bytes =
        restore_tree dir image;
        if not with_index then Sys.remove (index_path dir);
        write_file (seg_path dir 2) bytes;
        Pack.open_ ~segment_target:1024 dir
      in
      (match damage "XXXXX" with
      | Ok _ -> Alcotest.failf "%s: short garbage was opened" shape
      | Error (`Tampered msg) ->
          Alcotest.(check string) (shape ^ ": short garbage is refused")
            (Segment.filename 2 ^ ": bad segment magic") msg);
      (* An empty file is the shortest magic prefix: its magic must be
         rewritten too, or the next append lands before its offset. *)
      List.iter
        (fun torn ->
          match damage torn with
          | Error (`Tampered msg) ->
              Alcotest.failf "%s: torn creation refused: %s" shape msg
          | Ok (p, r) ->
              let what = Printf.sprintf "%s, %S" shape torn in
              Alcotest.(check int) (what ^ ": the torn creation clamps")
                (String.length torn) r.Pack.clamped_bytes;
              Alcotest.(check string) (what ^ ": the magic is rewritten")
                Segment.magic
                (read_file (seg_path dir 2));
              let ((h, _, _) as fresh) = node 4242 in
              Pack.append p [ fresh ];
              check_reads p (fresh :: (small @ extra)) ~expected:(h :: kept);
              Pack.close p)
        [ String.sub Segment.magic 0 5; "" ])
    [ true; false ]

(* --- bit flips --------------------------------------------------------------- *)

(* A mid-segment flip with a still-valid index: the open is cheap (no
   scan), the damaged record surfaces as [`Tampered] on read and in the
   scrub — and through [Store.scrub] once attached. *)
let test_midsegment_flip_tampered () =
  with_dir "flip-mid" @@ fun dir ->
  let written = nodes 12 in
  let p, _ = open_exn dir in
  Pack.append p written;
  Pack.close p;
  let blob = read_file (seg_path dir 0) in
  let victim_h, victim_off, victim_len =
    match Segment.scan blob with
    | Ok s -> List.nth s.Segment.records 3
    | Error _ -> Alcotest.fail "pristine scan"
  in
  (* flip one payload byte inside record 3 *)
  let b = Bytes.of_string blob in
  let pos = victim_off + victim_len - 2 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
  write_file (seg_path dir 0) (Bytes.to_string b);
  let p2, r2 = open_exn dir in
  Alcotest.(check bool) "open itself stays O(index)" false r2.Pack.index_rebuilt;
  (match Pack.get p2 victim_h with
  | exception Store.Tampered h ->
      Alcotest.(check string) "`Tampered names the victim" (Hash.to_hex victim_h)
        (Hash.to_hex h)
  | _ -> Alcotest.fail "flipped record must raise `Tampered");
  Alcotest.(check (list string))
    "pack scrub pinpoints the victim"
    [ Hash.to_hex victim_h ]
    (List.map Hash.to_hex (Pack.scrub p2));
  (* the attached store's scrub merges the backend report *)
  let store = Store.create () in
  Pack.attach p2 store;
  let report = Store.scrub store in
  Alcotest.(check bool) "Store.scrub sees the pack corruption" true
    (List.exists (Hash.equal victim_h) report.Store.corrupt);
  Pack.close p2

let test_flip_storms () =
  with_dir "flip-storm" @@ fun dir ->
  let written = nodes 25 in
  let p, _ = open_exn dir in
  Pack.append p written;
  Pack.close p;
  let pristine_seg = read_file (seg_path dir 0) in
  let pristine_idx = read_file (index_path dir) in
  for seed = 1 to 40 do
    let damaged, hits = Fault.flip_blob ~seed ~rate:0.002 pristine_seg in
    write_file (seg_path dir 0) damaged;
    write_file (index_path dir) pristine_idx;
    (match Pack.open_ dir with
    | Error (`Tampered _) -> ()  (* refused outright: fine *)
    | Ok (p, _) ->
        (* zero wrong reads, whatever survived *)
        check_reads p written;
        Pack.close p);
    ignore hits
  done;
  (* flip storms over the index: always recoverable by rebuild *)
  write_file (seg_path dir 0) pristine_seg;
  for seed = 1 to 40 do
    let damaged, hits = Fault.flip_blob ~seed ~rate:0.005 pristine_idx in
    write_file (index_path dir) damaged;
    let p, r = open_exn dir in
    if hits <> [] then
      Alcotest.(check bool)
        (Printf.sprintf "idx-flip seed %d rebuilds" seed)
        true r.Pack.index_rebuilt;
    check_reads p written ~expected:(List.map (fun (h, _, _) -> h) written);
    Pack.close p
  done

(* --- record format ------------------------------------------------------------- *)

(* One leaf, one single-child node and one three-child node: every head
   shape a record can take, in a segment small enough to flip bit by bit. *)
let format_records () =
  let leaf = node 1 in
  let mk bytes children = (Hash.of_string bytes, bytes, children) in
  let (h1, _, _) = leaf in
  let one = mk "inner-node-one" [ h1 ] in
  let (h2, _, _) = one in
  [ leaf; one; mk "inner-node-three" [ h1; h2; Hash.null ] ]

let check_exact_reads p written =
  List.iter
    (fun (h, bytes, children) ->
      match Pack.get p h with
      | Some b ->
          Alcotest.(check string) "bytes read back verbatim" bytes b;
          Alcotest.(check (option (list string)))
            "children read back verbatim"
            (Some (List.map Hash.to_hex children))
            (Option.map (List.map Hash.to_hex) (Pack.children p h))
      | None -> ()
      | exception Store.Tampered _ -> ())
    written

(* Flip every bit of a 3-record segment in turn, with a still-valid
   index.  Each open is refused or each read is byte-identical (or
   [`Tampered]); and [Segment.scan] never accepts a record covering the
   flipped bit. *)
let test_every_bit_flip () =
  with_dir "flip-every-bit" @@ fun dir ->
  let written = format_records () in
  let p, _ = open_exn dir in
  Pack.append p written;
  Pack.close p;
  let pristine_seg = read_file (seg_path dir 0) in
  let pristine_idx = read_file (index_path dir) in
  for bit = 0 to (8 * String.length pristine_seg) - 1 do
    let pos = bit / 8 in
    let b = Bytes.of_string pristine_seg in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl (bit mod 8))));
    let damaged = Bytes.to_string b in
    (match Segment.scan damaged with
    | Error (`Tampered _) -> ()
    | Ok s ->
        List.iter
          (fun (_, off, len) ->
            if pos >= off && pos < off + len then
              Alcotest.failf "scan accepted the record at %d with bit %d flipped"
                off bit)
          s.Segment.records);
    write_file (seg_path dir 0) damaged;
    write_file (index_path dir) pristine_idx;
    match Pack.open_ dir with
    | Error (`Tampered _) -> ()
    | Ok (p, _) ->
        check_exact_reads p written;
        Pack.close p
  done

(* The head digest and the content hash split the work: a read hashes the
   node bytes once plus the head, an append hashes the head only. *)
let test_hash_once () =
  with_dir "hash-once" @@ fun dir ->
  let p, _ = open_exn dir in
  let hashed = ref 0 and calls = ref 0 in
  let observe f =
    hashed := 0;
    calls := 0;
    Hash.set_digest_observer
      (Some
         (fun n ->
           hashed := !hashed + n;
           incr calls));
    Fun.protect ~finally:(fun () -> Hash.set_digest_observer None) f
  in
  List.iter
    (fun c ->
      let bytes = Printf.sprintf "hash-once-%d:%s" c (String.make 1000 'x') in
      let h = Hash.of_string bytes in
      let children =
        List.init c (fun i -> Hash.of_string (Printf.sprintf "child-%d" i))
      in
      let varint = if c < 128 then 1 else 2 in
      let head = 4 + Hash.size + varint + (c * Hash.size) in
      observe (fun () -> Pack.append p [ (h, bytes, children) ]);
      Alcotest.(check (pair int int))
        (Printf.sprintf "append with %d children hashes the head only" c)
        (1, head) (!calls, !hashed);
      Pack.flush p;
      observe (fun () ->
          match Pack.get p h with
          | Some b -> Alcotest.(check string) "read back" bytes b
          | None -> Alcotest.fail "appended node is absent");
      Alcotest.(check (pair int int))
        (Printf.sprintf "get with %d children hashes bytes + head" c)
        (2, String.length bytes + head)
        (!calls, !hashed))
    [ 0; 3; 130 ];
  Pack.close p

(* A segment in the retired SIRIPACKSEG1 layout — one frame per record,
   the digest over the whole payload — as the previous format wrote it. *)
let seg1_segment written =
  let record (h, bytes, children) =
    let w = Siri_codec.Wire.Writer.create () in
    Siri_codec.Wire.Writer.hash w h;
    Siri_codec.Wire.Writer.str w bytes;
    Siri_codec.Wire.Writer.varint w (List.length children);
    List.iter (Siri_codec.Wire.Writer.hash w) children;
    Siri_codec.Frame.encode (Siri_codec.Wire.Writer.contents w)
  in
  String.concat "" ("SIRIPACKSEG1" :: List.map record written)

let test_retired_format_refused () =
  with_dir "seg1" @@ fun dir ->
  let written = format_records () in
  let p, _ = open_exn dir in
  Pack.append p written;
  Pack.close p;
  write_file (seg_path dir 0) (seg1_segment written);
  let expect_refused what =
    match Pack.open_ dir with
    | Ok _ -> Alcotest.failf "%s: a SIRIPACKSEG1 segment was opened" what
    | Error (`Tampered msg) ->
        Alcotest.(check bool)
          (what ^ ": the error names the format: " ^ msg)
          true
          (Astring.String.is_infix ~affix:"SIRIPACKSEG1" msg)
  in
  expect_refused "with an index";
  Sys.remove (index_path dir);
  expect_refused "without an index"

(* A fixed, seeded append sequence must produce a byte-identical segment
   file: records with 0 children, with a few, and with >= 128 (a two-byte
   child-count varint), small and large payloads, and a duplicate that the
   append-time dedup drops.  The digest pins the on-disk format. *)
let pinned_segment_sha256 =
  "527409187d7343ad3cc62510bfd9af11a5040d29f240bcfd782fe998c50d7c0d"

let test_segment_bytes_pinned () =
  with_dir "pinned" @@ fun dir ->
  let rng = Rng.create 1729 in
  let record i =
    let bytes = Rng.bytes_random rng (Rng.int_in rng 0 600) ^ string_of_int i in
    let n =
      match i mod 5 with 0 -> 0 | 1 -> 128 | 2 -> 200 | _ -> Rng.int rng 40
    in
    let children =
      List.init n (fun _ -> Hash.of_string (Rng.bytes_random rng 8))
    in
    (Hash.of_string bytes, bytes, children)
  in
  let written = List.init 60 record in
  let p, _ = open_exn dir in
  Pack.append p written;
  Pack.append p [ List.nth written 7 ];
  Pack.close p;
  Alcotest.(check (list int)) "one segment" [ 0 ] (Pack.segment_ids p);
  Alcotest.(check string) "segment SHA-256" pinned_segment_sha256
    (Hash.to_hex (Hash.of_string (read_file (seg_path dir 0))))

let qcheck_record_roundtrip =
  (* A record built from its head and its node bytes verifies, and yields
     back the hash, the children and the bytes — with 0, a few, or 128+
     children (a two-byte count). *)
  let gen =
    QCheck.(
      pair (string_of_size Gen.(0 -- 300)) (oneofl [ 0; 1; 5; 127; 128; 200 ]))
  in
  QCheck.Test.make ~name:"record_head ^ bytes is a verified record" ~count:60 gen
    (fun (bytes, n) ->
      let h = Hash.of_string bytes in
      let children = List.init n (fun i -> Hash.of_string (bytes ^ string_of_int i)) in
      let record = Segment.encode_record h bytes children in
      String.length record
      = String.length (Segment.record_head h ~bytes_len:(String.length bytes) children)
        + String.length bytes
      &&
      (* In a longer buffer too, as a cold read verifies it: [limit]
         ends the blob at the record. *)
      let padded = record ^ String.make 40 '\xff' in
      List.for_all
        (fun (blob, limit) ->
          match Segment.step ?limit blob ~pos:0 with
          | Segment.Record r ->
              Hash.equal (Segment.hash blob r) h
              && Segment.children blob r = children
              && r.next = String.length record
              && String.sub blob r.bytes_off r.bytes_len = bytes
          | _ -> false)
        [ (record, None); (padded, Some (String.length record)) ])

(* --- rebuilt index is byte-identical (qcheck) -------------------------------- *)

let qcheck_rebuild_identity =
  let gen =
    QCheck.(
      pair (int_range 1 120) (int_range 1 1_000_000)
      |> map (fun (n, salt) -> (n, salt)))
  in
  QCheck.Test.make ~name:"index rebuilt from segments == persisted index"
    ~count:25 gen (fun (n, salt) ->
      with_dir "qcheck-rebuild" @@ fun dir ->
      let written =
        List.init n (fun i ->
            let bytes = Printf.sprintf "q-%d-%d-%s" salt i (String.make (i mod 37) 'z') in
            (Hash.of_string bytes, bytes, []))
      in
      let p, _ = open_exn ~segment_target:1024 dir in
      Pack.append p written;
      Pack.close p;
      let persisted = read_file (index_path dir) in
      Sys.remove (index_path dir);
      let p2, r2 = open_exn ~segment_target:1024 dir in
      let rebuilt_flag = r2.Pack.index_rebuilt in
      Pack.close p2;
      let rebuilt = read_file (index_path dir) in
      rebuilt_flag && String.equal persisted rebuilt)

(* --- compaction kill-points --------------------------------------------------- *)

exception Kill

let test_compaction_kill_points () =
  let all = nodes 60 in
  let live_nodes = List.filteri (fun i _ -> i mod 3 <> 0) all in
  let live =
    Hash.Set.of_list (List.map (fun (h, _, _) -> h) live_nodes)
  in
  let all_hs = List.map (fun (h, _, _) -> h) all in
  let live_hs = List.map (fun (h, _, _) -> h) live_nodes in
  List.iter
    (fun kill_at ->
      with_dir ("kill-" ^ kill_at) @@ fun dir ->
      let p, _ = open_exn ~segment_target:1500 dir in
      Pack.append p all;
      Pack.flush p;
      Pack.sync_index p;
      (match
         Pack.compact p ~live ~on_step:(fun s ->
             if String.equal s kill_at then raise Kill)
       with
      | (_ : Hash.t list) -> Alcotest.fail "kill point did not fire"
      | exception Kill -> ());
      (* the crashed process is gone; a fresh open decides the outcome *)
      let p2, _ = open_exn ~segment_target:1500 dir in
      let expected =
        (* strictly before the manifest flip: the old set, intact.
           at/after it: exactly the live set.  Never a mix. *)
        match kill_at with
        | "begin" | "segments-written" | "index-written" -> all_hs
        | _ -> live_hs
      in
      check_reads p2 all ~expected;
      Alcotest.(check (list string)) "no corruption either way" []
        (List.map Hash.to_hex (Pack.scrub p2));
      Pack.close p2)
    [ "begin"; "segments-written"; "index-written"; "manifest"; "cleanup" ]

let test_compaction_drops_and_survives () =
  with_dir "compact" @@ fun dir ->
  let all = nodes 40 in
  let live_nodes = List.filteri (fun i _ -> i < 25) all in
  let live = Hash.Set.of_list (List.map (fun (h, _, _) -> h) live_nodes) in
  let p, _ = open_exn ~segment_target:1200 dir in
  Pack.append p all;
  let old_segs = Pack.segment_ids p in
  let dropped = Pack.compact p ~live in
  Alcotest.(check int) "dropped count" 15 (List.length dropped);
  Alcotest.(check bool) "fresh segment ids" true
    (List.for_all
       (fun id -> not (List.mem id old_segs))
       (Pack.segment_ids p));
  check_reads p all ~expected:(List.map (fun (h, _, _) -> h) live_nodes);
  (* old segment files are gone *)
  List.iter
    (fun id ->
      Alcotest.(check bool) "old segment deleted" false
        (Sys.file_exists (seg_path dir id)))
    old_segs;
  (* appends keep working after the swap *)
  let fresh = node 9999 in
  Pack.append p [ fresh ];
  check_reads p [ fresh ] ~expected:[ (fun (h, _, _) -> h) fresh ];
  Pack.close p;
  let p2, r2 = open_exn ~segment_target:1200 dir in
  Alcotest.(check bool) "clean reopen after compaction" false
    r2.Pack.index_rebuilt;
  check_reads p2 (fresh :: all)
    ~expected:((fun (h, _, _) -> h) fresh :: List.map (fun (h, _, _) -> h) live_nodes);
  Pack.close p2

(* A crash inside a manifest or index replacement leaves its temp file in
   the pack directory.  Reopen removes both in the same pass as orphan
   segments (counting neither as one) and leaves the live segment as it
   was. *)
let test_tmp_files_swept () =
  with_dir "tmp-sweep" @@ fun dir ->
  let all = nodes 20 in
  let p, _ = open_exn dir in
  Pack.append p all;
  Pack.close p;
  let seg = read_file (seg_path dir 0) in
  let tmps =
    List.map (Filename.concat dir) [ "manifest.tmp.99999.1"; "index.tmp.99999.2" ]
  in
  List.iter (fun path -> write_file path "torn") tmps;
  let p, r = open_exn dir in
  List.iter
    (fun path ->
      Alcotest.(check bool) (path ^ " swept") false (Sys.file_exists path))
    tmps;
  Alcotest.(check int) "no orphan segment" 0 r.Pack.swept;
  Alcotest.(check string) "live segment intact" seg (read_file (seg_path dir 0));
  check_reads p all ~expected:(List.map (fun (h, _, _) -> h) all);
  Alcotest.(check (list string)) "scrub is clean" []
    (List.map Hash.to_hex (Pack.scrub p));
  Pack.close p

(* --- retry / transient gates --------------------------------------------------- *)

let test_with_retry () =
  let sink = Telemetry.create () in
  let calls = ref 0 in
  (* two transients, then success: retried within the budget *)
  let r =
    Fault.with_retry ~attempts:3 ~sink (fun () ->
        incr calls;
        if !calls < 3 then raise (Store.Transient Hash.null) else "ok")
  in
  Alcotest.(check bool) "succeeds after retries" true (r = Ok "ok");
  Alcotest.(check int) "three probes" 3 !calls;
  Alcotest.(check int) "retry.attempt" 2 (Telemetry.counter sink "retry.attempt");
  Alcotest.(check int) "no give_up" 0 (Telemetry.counter sink "retry.give_up");
  (* permanent transient: bounded, surrendered, telemetered *)
  let slept = ref [] in
  let r2 =
    Fault.with_retry ~attempts:4 ~backoff_s:0.001
      ~sleep:(fun d -> slept := d :: !slept)
      ~sink
      (fun () -> raise (Store.Transient Hash.null))
  in
  (match r2 with
  | Error (`Transient _) -> ()
  | _ -> Alcotest.fail "must surface `Transient after giving up");
  Alcotest.(check int) "give_up counted" 1 (Telemetry.counter sink "retry.give_up");
  Alcotest.(check (list (float 1e-9))) "exponential backoff"
    [ 0.001; 0.002; 0.004 ] (List.rev !slept);
  (* non-transient errors return immediately *)
  let r3 = Fault.with_retry ~attempts:5 (fun () -> raise Not_found) in
  (match r3 with
  | Error (`Missing _) -> ()
  | _ -> Alcotest.fail "non-transient must not retry")

let test_with_retry_jitter () =
  (* Full jitter: with ~jitter:seed each pause is cap * u_i where
     cap = backoff * 2^i and u_i is the i-th draw of Rng.create seed —
     so the schedule is exactly reproducible, and every pause stays
     inside [0, cap), which is what stops a thundering herd of clients
     from retrying in lockstep. *)
  let schedule ~seed ~backoff ~attempts =
    let slept = ref [] in
    (match
       Fault.with_retry ~attempts ~backoff_s:backoff ~jitter:seed
         ~sleep:(fun d -> slept := d :: !slept)
         (fun () -> raise (Store.Transient Hash.null))
     with
    | Error (`Transient _) -> ()
    | _ -> Alcotest.fail "must give up");
    List.rev !slept
  in
  let got = schedule ~seed:11 ~backoff:0.001 ~attempts:4 in
  let rng = Rng.create 11 in
  let expected =
    List.map (fun i -> 0.001 *. float_of_int (1 lsl i) *. Rng.float rng) [ 0; 1; 2 ]
  in
  Alcotest.(check (list (float 1e-12))) "pinned jittered schedule" expected got;
  List.iteri
    (fun i d ->
      let cap = 0.001 *. float_of_int (1 lsl i) in
      Alcotest.(check bool)
        (Printf.sprintf "pause %d in [0, cap)" i)
        true
        (d >= 0.0 && d < cap))
    got;
  (* deterministic: same seed, same schedule *)
  Alcotest.(check (list (float 1e-12))) "same seed reproduces"
    got
    (schedule ~seed:11 ~backoff:0.001 ~attempts:4);
  (* decorrelated: a different seed gives a different schedule *)
  Alcotest.(check bool) "different seed differs" true
    (schedule ~seed:12 ~backoff:0.001 ~attempts:4 <> got);
  (* no jitter argument: the undithered exponential schedule is unchanged *)
  let slept = ref [] in
  ignore
    (Fault.with_retry ~attempts:3 ~backoff_s:0.01
       ~sleep:(fun d -> slept := d :: !slept)
       (fun () -> raise (Store.Transient Hash.null)));
  Alcotest.(check (list (float 1e-9))) "no-jitter schedule intact"
    [ 0.01; 0.02 ] (List.rev !slept)

let test_io_gate_transients () =
  with_dir "gate" @@ fun dir ->
  let written = nodes 30 in
  let sink = Telemetry.create () in
  let p, _ = open_exn ~retry_attempts:3 ~sink dir in
  Pack.append p written;
  Pack.flush p;
  (* a flaky disk that fails one read in five: every get still succeeds,
     through retries *)
  let gate = Fault.io_gate (Fault.plan ~transient:0.2 ~seed:42 ()) in
  Pack.set_read_gate p (Some gate);
  check_reads p written ~expected:(List.map (fun (h, _, _) -> h) written);
  Alcotest.(check bool) "transients were injected" true
    (Fault.io_transients gate > 0);
  Alcotest.(check bool) "retries recorded" true
    (Telemetry.counter sink "retry.attempt" > 0);
  Alcotest.(check int) "nothing surrendered" 0
    (Telemetry.counter sink "retry.give_up");
  (* a dead disk: transient every time, bounded surrender *)
  let dead = Fault.io_gate (Fault.plan ~transient:1.0 ~seed:7 ()) in
  Pack.set_read_gate p (Some dead);
  let h, _, _ = List.hd written in
  (match Pack.get p h with
  | exception Store.Transient _ -> ()
  | _ -> Alcotest.fail "dead disk must surface `Transient");
  Alcotest.(check bool) "give_up recorded" true
    (Telemetry.counter sink "retry.give_up" > 0);
  (* flips and truncations injected by the gate are caught by the frame
     digest: `Tampered, never a wrong read *)
  let lossy = Fault.io_gate (Fault.plan ~bit_flip:0.5 ~truncate:0.5 ~seed:3 ()) in
  Pack.set_read_gate p (Some lossy);
  List.iter
    (fun (h, bytes, _) ->
      match Pack.get p h with
      | Some b -> Alcotest.(check string) "verified read" bytes b
      | None -> Alcotest.fail "indexed node cannot vanish"
      | exception Store.Tampered _ -> ())
    written;
  Alcotest.(check bool) "damage was injected" true
    (Fault.io_flips lossy + Fault.io_truncations lossy > 0);
  Pack.set_read_gate p None;
  Pack.close p

(* --- store integration --------------------------------------------------------- *)

let table_size store =
  let n = ref 0 in
  Store.iter_nodes store (fun _ _ -> incr n);
  !n

let test_store_write_through () =
  with_dir "store" @@ fun dir ->
  let p, _ = open_exn dir in
  let store = Store.create () in
  Pack.attach p store;
  Alcotest.(check (option string)) "backend name" (Some "pack")
    (Store.backend_name store);
  let leaves =
    List.init 30 (fun i ->
        let bytes = Printf.sprintf "leaf-%02d" i in
        (Store.put store bytes, bytes))
  in
  let root_bytes = "root-node" in
  let root = Store.put store ~children:(List.map fst leaves) root_bytes in
  (* the pack is the nodes' one place: nothing stays in memory *)
  Alcotest.(check int) "no node in the table" 0 (table_size store);
  List.iter
    (fun (h, bytes) ->
      Alcotest.(check string) "read back from the pack" bytes (Store.get store h))
    ((root, root_bytes) :: leaves);
  Alcotest.(check int) "children come back from the pack" 30
    (List.length (Store.children store root));
  Alcotest.(check bool) "mem through the backend" true (Store.mem store root);
  Pack.close p

let test_store_gc_compacts_backend () =
  with_dir "gc" @@ fun dir ->
  let p, _ = open_exn ~segment_target:1024 dir in
  let store = Store.create () in
  Pack.attach p store;
  let keep = List.init 10 (fun i -> Store.put store (Printf.sprintf "keep-%d" i)) in
  let drop = List.init 10 (fun i -> Store.put store (Printf.sprintf "drop-%d" i)) in
  let root = Store.put store ~children:keep "gc-root" in
  let reclaimed = Store.gc store ~roots:[ root ] in
  Alcotest.(check int) "dead nodes reclaimed" 10 reclaimed;
  List.iter
    (fun h ->
      Alcotest.(check bool) "dropped from the pack too" false (Pack.mem p h))
    drop;
  List.iter
    (fun h -> Alcotest.(check bool) "live survives in pack" true (Pack.mem p h))
    (root :: keep);
  (* reads of the live set still verify after compaction *)
  Alcotest.(check string) "root readable cold" "gc-root" (Store.get store root);
  Pack.close p

(* --- durable engine on the pack backend ----------------------------------------- *)

(* Two domains re-read a fixed record set while the main domain appends
   100k records, resizing the offset index several times: a lookup that
   lands inside a resize must still find its record, and every read is a
   lock-free positioned read racing the appends. *)
let test_readers_beside_appender () =
  with_dir "readers-appender" @@ fun dir ->
  let p, _ = open_exn dir in
  let fixed = nodes 200 in
  Pack.append p fixed;
  Pack.flush p;
  let writing = Atomic.make true in
  let missing = Atomic.make 0 and reads = Atomic.make 0 in
  let reader () =
    while Atomic.get writing do
      List.iter
        (fun (h, _, _) ->
          Atomic.incr reads;
          if Pack.get p h = None then Atomic.incr missing)
        fixed
    done
  in
  let appender () =
    for i = 1 to 100_000 do
      let bytes = Printf.sprintf "appended-%d" i in
      Pack.append p [ (Hash.of_string bytes, bytes, []) ]
    done;
    Atomic.set writing false
  in
  let readers = List.map Domain.spawn [ reader; reader ] in
  appender ();
  List.iter Domain.join readers;
  Alcotest.(check bool) "readers overlapped the appender" true
    (Atomic.get reads > 0);
  Alcotest.(check int) "no missing records" 0 (Atomic.get missing);
  Pack.close p

(* Publish after flush: the moment [append] returns, with no [flush],
   every new record is in the OS — a freshly opened descriptor scanning
   the segment sees each one — and reads back through [get].  A reader
   never has to flush the appender's channel to find a published record,
   so it never can race the appender out of an fsync. *)
let test_append_publishes_after_flush () =
  with_dir "publish" @@ fun dir ->
  let p, _ = open_exn dir in
  let written = nodes 40 in
  Pack.append p written;
  let on_disk =
    List.concat_map
      (fun id ->
        match Segment.scan (read_file (seg_path dir id)) with
        | Ok s -> List.map (fun (h, _, _) -> h) s.Segment.records
        | Error _ -> Alcotest.fail "segment scan failed")
      (Pack.segment_ids p)
  in
  Alcotest.(check (list string)) "every record is in the OS on return"
    (List.sort compare (List.map (fun (h, _, _) -> Hash.to_hex h) written))
    (List.sort compare (List.map Hash.to_hex on_disk));
  check_reads p written ~expected:(List.map (fun (h, _, _) -> h) written);
  Pack.close p

(* The positioned read loops over 64 KiB bounce-buffer chunks: a record
   several chunks long must read back whole.  At a torn tail the read
   comes back short — the byte count the file actually holds — and a
   record cut there is [Tampered], never a wrong read. *)
let test_pread_large_and_torn () =
  with_dir "pread" @@ fun dir ->
  let p, _ = open_exn dir in
  let big =
    String.init ((200 * 1024) + 7) (fun i -> Char.chr (i * 31 land 0xff))
  in
  let h = Hash.of_string big in
  Pack.append p [ (h, big, []) ];
  (match Pack.get p h with
  | Some b ->
      Alcotest.(check bool) "200 KiB record reads back whole" true (b = big)
  | None -> Alcotest.fail "large record missing");
  let path = seg_path dir (List.hd (Pack.segment_ids p)) in
  let len = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Alcotest.(check string) "pread matches the file"
        (String.sub (read_file path) 100 70_000)
        (Pack.pread fd ~off:100 ~len:70_000);
      Unix.truncate path (len - 10);
      Alcotest.(check int) "short count at the torn tail" 90
        (String.length (Pack.pread fd ~off:(len - 100) ~len:1000));
      Alcotest.(check int) "nothing past the end" 0
        (String.length (Pack.pread fd ~off:len ~len:16)));
  (match Pack.get p h with
  | _ -> Alcotest.fail "a record cut by the torn tail must not read"
  | exception Store.Tampered h' ->
      Alcotest.(check string) "tampered names the record" (Hash.to_hex h)
        (Hash.to_hex h'));
  Pack.close p

(* --- cold reads ------------------------------------------------------------------ *)

(* Words [f] allocates: minor words plus words allocated directly in the
   major heap (a promotion is a minor word counted again, so promoted
   words are taken out), less what the measurement itself allocates.
   Under OCaml 5.1 [Gc.quick_stat] lags both counts until the next
   collection and [Gc.counters] misreports the minor one, so the minor
   words come from [Gc.minor_words] and the major ones from
   [Gc.counters]; both are exact for the calling domain. *)
let allocated_words f =
  let words () =
    let minor = Gc.minor_words () in
    let _, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let span g =
    let before = words () in
    let v = g () in
    let after = words () in
    (v, int_of_float (after -. before))
  in
  let (), overhead = span ignore in
  let v, total = span f in
  (v, total - overhead)

(* Heap words of a string of [len] bytes, header included. *)
let string_words len = (len / 8) + 2

(* What a cold read may allocate beside the node bytes it returns: the
   retry wrapper's closures, the two digests, the record of offsets and
   the option.  Neither the record nor its child list is ever copied. *)
let read_overhead_words = 128

(* A warm cold read allocates the node bytes it returns plus a fixed
   constant — for a leaf and for a 40-child internal node alike.  Read
   into a fresh record buffer with the children listed, the two reads
   cost ~390 and ~690 words more. *)
let test_cold_read_allocation () =
  with_dir "alloc" @@ fun dir ->
  let p, _ = open_exn dir in
  let leaf_bytes = "leaf:" ^ String.make 2000 'l' in
  let inner_bytes = "inner:" ^ String.make 1200 'i' in
  let kids = List.init 40 (fun i -> Hash.of_string (Printf.sprintf "kid-%d" i)) in
  let leaf = Hash.of_string leaf_bytes and inner = Hash.of_string inner_bytes in
  Pack.append p [ (leaf, leaf_bytes, []); (inner, inner_bytes, kids) ];
  List.iter
    (fun (what, h, bytes) ->
      ignore (Pack.get p h : string option);
      let got, words = allocated_words (fun () -> Pack.get p h) in
      Alcotest.(check (option string)) (what ^ " reads back") (Some bytes) got;
      let bound = string_words (String.length bytes) + read_overhead_words in
      if words > bound then
        Alcotest.failf "%s: a cold read allocated %d words, bound %d" what
          words bound)
    [ ("0-child record", leaf, leaf_bytes); ("40-child record", inner, inner_bytes) ];
  Alcotest.(check (option (list string))) "children read back"
    (Some (List.map Hash.to_hex kids))
    (Option.map (List.map Hash.to_hex) (Pack.children p inner));
  Pack.close p

(* Each domain's record buffer is checked out for the length of a read.
   Systhreads on the main domain share its buffer, and a record over
   64 KiB makes [pread] release the runtime lock between chunks, so
   three of them reading large and small records at once would overwrite
   each other's bytes mid-read if the buffer were used in place.  Two
   reader domains run beside them; every answer must be byte-identical. *)
let test_shared_read_buffer () =
  with_dir "shared-buffer" @@ fun dir ->
  let p, _ = open_exn dir in
  let large i =
    String.init (70_000 + (37_000 * i)) (fun j -> Char.chr ((j * (7 + i)) land 0xff))
  in
  let records =
    List.concat
      (List.init 4 (fun i ->
           let big = large i in
           let h, small, _ = node i in
           [ (Hash.of_string big, big, []);
             (Hash.of_string (small ^ "!"), small ^ "!", [ h; Hash.of_string big ]) ]))
  in
  Pack.append p records;
  let records = Array.of_list records in
  let bad = Atomic.make 0 and reads = Atomic.make 0 in
  let reader id () =
    for round = 0 to 24 do
      for k = 0 to Array.length records - 1 do
        let h, bytes, children =
          records.((k + (round * id)) mod Array.length records)
        in
        Atomic.incr reads;
        match (Pack.get p h, Pack.children p h) with
        | Some b, Some c when String.equal b bytes && c = children -> ()
        | _ | (exception _) -> Atomic.incr bad
      done
    done
  in
  let domains = List.map (fun id -> Domain.spawn (reader id)) [ 1; 2 ] in
  let threads = List.map (fun id -> Thread.create (reader id) ()) [ 3; 4; 5 ] in
  List.iter Thread.join threads;
  List.iter Domain.join domains;
  Alcotest.(check int) "every read answered" (5 * 25 * Array.length records)
    (Atomic.get reads);
  Alcotest.(check int) "every answer byte-identical" 0 (Atomic.get bad);
  Pack.close p

(* A cold read verifies the whole record even though it returns only the
   node bytes: flip, on disk, each byte of one record's head — length,
   digest, hash, child count, every child hash — and a sample of its node
   bytes, and both [get] and [children] refuse it as [`Tampered] naming
   that hash. *)
let test_head_flips_on_bytes_path () =
  with_dir "head-flips" @@ fun dir ->
  let p, _ = open_exn dir in
  let kids = List.init 3 (fun i -> Hash.of_string (Printf.sprintf "kid-%d" i)) in
  let bytes = "internal:" ^ String.make 300 'n' in
  let h = Hash.of_string bytes in
  Pack.append p [ node 1; (h, bytes, kids); node 2 ];
  Pack.flush p;
  let path = seg_path dir 0 in
  let off, len =
    match Segment.scan (read_file path) with
    | Ok s ->
        let _, off, len =
          List.find (fun (h', _, _) -> Hash.equal h h') s.Segment.records
        in
        (off, len)
    | Error _ -> Alcotest.fail "pristine scan"
  in
  let head = Segment.header_len + Hash.size + 1 + (List.length kids * Hash.size) in
  Alcotest.(check int) "record layout" (head + String.length bytes) len;
  let sampled = List.init ((len - head) / 16) (fun i -> head + (16 * i)) in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  let write_byte pos c =
    ignore (Unix.lseek fd (off + pos) Unix.SEEK_SET : int);
    ignore (Unix.write_substring fd (String.make 1 c) 0 1 : int)
  in
  let pristine = read_file path in
  let refused what read =
    match read p h with
    | exception Store.Tampered h' ->
        Alcotest.(check string) (what ^ " names the record") (Hash.to_hex h)
          (Hash.to_hex h')
    | _ -> Alcotest.failf "%s returned a flipped record" what
  in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
      List.iter
        (fun pos ->
          let c = pristine.[off + pos] in
          List.iter
            (fun mask ->
              write_byte pos (Char.chr (Char.code c lxor mask));
              refused (Printf.sprintf "get, byte %d ^ %d" pos mask) Pack.get;
              refused (Printf.sprintf "children, byte %d ^ %d" pos mask)
                Pack.children)
            [ 0x01; 0x80 ];
          write_byte pos c)
        (List.init head Fun.id @ sampled @ [ len - 1 ]));
  Alcotest.(check (option string)) "restored record reads back" (Some bytes)
    (Pack.get p h);
  Alcotest.(check (option (list string))) "children are the appended list"
    (Some (List.map Hash.to_hex kids))
    (Option.map (List.map Hash.to_hex) (Pack.children p h));
  Pack.close p

let mk_mpt () = Siri_mpt.Mpt.generic (Siri_mpt.Mpt.empty (Store.create ()))

let state engine =
  List.map
    (fun b ->
      let h = Engine.head engine b in
      (b, Hash.to_hex h.Engine.id, Hash.to_hex h.Engine.index_root))
    (Engine.branches engine)

let state_testable = Alcotest.(list (triple string string string))

let script =
  [ ("master", [ Kv.Put ("a", "1"); Kv.Put ("b", "2") ]);
    ("master", [ Kv.Put ("c", "3"); Kv.Del "a" ]);
    ("master", [ Kv.Put ("d", "4") ]);
    ("master", [ Kv.Put ("a", "5"); Kv.Put ("e", "6") ]) ]

let open_durable_exn ?sync ~backend dir =
  match Durable.open_ ?sync ~backend ~dir ~empty_index:(mk_mpt ()) () with
  | Ok t -> t
  | Error e -> Alcotest.failf "Durable.open_: %a" Wal.pp_error e

let run_script ?(checkpoint_after = -1) dir =
  let t = open_durable_exn ~sync:false ~backend:`Pack dir in
  List.iteri
    (fun i (branch, ops) ->
      ignore (Durable.commit t ~branch ~message:(Printf.sprintf "c%d" i) ops
              : Engine.commit);
      if i = checkpoint_after then Durable.checkpoint t)
    script;
  let s = state (Durable.engine t) in
  Durable.close t;
  s

let test_durable_pack_reopen () =
  with_dir "durable" @@ fun dir ->
  let final = run_script dir in
  let t = open_durable_exn ~sync:false ~backend:`Pack dir in
  Alcotest.check state_testable "replayed state == committed state" final
    (state (Durable.engine t));
  Alcotest.(check int) "all records replayed (no checkpoint)"
    (List.length script) (Durable.recovery t).Durable.replayed;
  (* reads go to the pack the replay wrote through *)
  Alcotest.(check (option string)) "value" (Some "5")
    (Durable.get t ~branch:"master" "a");
  Durable.close t

let test_durable_pack_checkpoint () =
  with_dir "durable-ckpt" @@ fun dir ->
  let final = run_script ~checkpoint_after:1 dir in
  (* no snapshot file was ever written: the pack is the node storage *)
  Alcotest.(check bool) "no store.<gen> snapshot" false
    (Sys.file_exists (Filename.concat dir "store.1"));
  Alcotest.(check bool) "heads file exists" true
    (Sys.file_exists (Filename.concat dir "store.1.heads"));
  let t = open_durable_exn ~sync:false ~backend:`Pack dir in
  Alcotest.check state_testable "state after checkpointed reopen" final
    (state (Durable.engine t));
  Alcotest.(check int) "only post-checkpoint records replayed" 2
    (Durable.recovery t).Durable.replayed;
  Alcotest.(check int) "generation advanced" 1
    (Durable.recovery t).Durable.generation;
  Durable.close t;
  (* lose the pack's offset index: recovery rebuilds it from segments *)
  Sys.remove (Filename.concat (Durable.pack_dir dir) "index");
  let t2 = open_durable_exn ~sync:false ~backend:`Pack dir in
  Alcotest.check state_testable "state after index rebuild" final
    (state (Durable.engine t2));
  Durable.close t2

let test_durable_pack_journal_crash () =
  with_dir "durable-crash" @@ fun dir ->
  (* snapshot the state after every commit, then truncate the journal at
     every byte offset and require recovery to an exact prefix *)
  let t = open_durable_exn ~sync:false ~backend:`Pack dir in
  let states = ref [ state (Durable.engine t) ] in
  List.iteri
    (fun i (branch, ops) ->
      ignore (Durable.commit t ~branch ~message:(Printf.sprintf "c%d" i) ops
              : Engine.commit);
      states := state (Durable.engine t) :: !states)
    script;
  let ends = ref [] in
  Durable.close t;
  let states = Array.of_list (List.rev !states) in
  let journal = read_file (Durable.journal_path dir) in
  (match Wal.scan journal with
  | Ok s -> ends := s.Wal.ends
  | Error _ -> Alcotest.fail "pristine journal must scan");
  let record_ends = Array.of_list !ends in
  let pack_backup = ref [] in
  let pack_d = Durable.pack_dir dir in
  Array.iter
    (fun name ->
      let p = Filename.concat pack_d name in
      if not (Sys.is_directory p) then pack_backup := (p, read_file p) :: !pack_backup)
    (Sys.readdir pack_d);
  for cut = 0 to String.length journal - 1 do
    write_file (Durable.journal_path dir) (String.sub journal 0 cut);
    List.iter (fun (p, blob) -> write_file p blob) !pack_backup;
    let t = open_durable_exn ~sync:false ~backend:`Pack dir in
    let survived =
      Array.fold_left (fun acc e -> if e <= cut then acc + 1 else acc) 0
        record_ends
    in
    Alcotest.check state_testable
      (Printf.sprintf "journal cut@%d recovers exactly %d records" cut survived)
      states.(survived)
      (state (Durable.engine t));
    Durable.close t
  done

(* --- durable engine: a roll inside a commit run ------------------------------- *)

(* [Durable] has no segment-target option, so crossing a roll takes a
   commit whose nodes pass the default 8 MiB: 12 values of 768 KiB. *)
let roll_entries =
  List.init 12 (fun i ->
      ( Printf.sprintf "bulk-%02d" i,
        Printf.sprintf "%02d:" i ^ String.make (768 * 1024) (Char.chr (97 + i)) ))

let checkpoint_side_branch t =
  Durable.fork t ~from:"master" "side";
  ignore (Durable.commit t ~branch:"side" ~message:"s0" [ Kv.Put ("a", "1") ]
          : Engine.commit);
  Durable.checkpoint t

(* A run that crosses a roll: a bulk load of [roll_entries] on master
   (still at version 0, so the canonical bulk build) and the small
   [script] commits; returns the run's commit count. *)
let roll_run t =
  ignore (Durable.commit_bulk t ~branch:"master" ~message:"bulk" roll_entries
          : Engine.commit);
  List.iteri
    (fun i (branch, ops) ->
      ignore (Durable.commit t ~branch ~message:(Printf.sprintf "c%d" i) ops
              : Engine.commit))
    script;
  1 + List.length script

let mk_mpt_with_sink sink =
  let store = Store.create () in
  Store.set_sink store sink;
  Siri_mpt.Mpt.generic (Siri_mpt.Mpt.empty store)

let mk_pos store =
  Siri_pos.Pos_tree.generic
    (Siri_pos.Pos_tree.empty store (Siri_pos.Pos_tree.config ()))

let mk_mbt store =
  Siri_mbt.Mbt.generic
    (Siri_mbt.Mbt.empty store (Siri_mbt.Mbt.config ~capacity:64 ~fanout:4 ()))

let open_pack_durable ~dir index =
  match Durable.open_ ~sync:false ~backend:`Pack ~dir ~empty_index:index () with
  | Ok t -> t
  | Error e -> Alcotest.failf "Durable.open_: %a" Wal.pp_error e

let puts c n =
  List.init n (fun j ->
      let k = ((c * 37) + (j * 101)) mod 1000 in
      Kv.Put (Printf.sprintf "k%04d" k, Printf.sprintf "v%d.%d" c j))

(* What a long run keeps is bounded by count, not by host memory: after
   200 commits a pack-backed store holds no node in its table, and only
   the head's root keeps a negative-lookup filter.  A fork shares its
   parent's root, so that root keeps its filter when one branch moves. *)
let test_bounded_by_count () =
  with_dir "bounded" @@ fun dir ->
  let store = Store.create () in
  let t = open_pack_durable ~dir (mk_pos store) in
  ignore
    (Durable.commit_bulk t ~branch:"master" ~message:"load"
       (List.init 1000 (fun i -> (Printf.sprintf "k%04d" i, "v0")))
      : Engine.commit);
  for c = 1 to 200 do
    ignore (Durable.commit t ~branch:"master" ~message:"c" (puts c 16) : Engine.commit)
  done;
  let engine = Durable.engine t in
  Alcotest.(check int) "no node in the table" 0 (table_size store);
  let head = Engine.head engine "master" in
  Alcotest.(check bool) "the head keeps its filter" true
    (Option.is_some (Store.root_filter store head.Engine.index_root));
  List.iter
    (fun (c : Engine.commit) ->
      if c.version < head.version then
        Alcotest.(check bool)
          (Printf.sprintf "version %d has no filter" c.version)
          true
          (Option.is_none (Store.root_filter store c.index_root)))
    (Engine.history engine "master");
  Durable.fork t ~from:"master" "side";
  ignore (Durable.commit t ~branch:"side" ~message:"s" (puts 201 16) : Engine.commit);
  Alcotest.(check bool) "the shared parent root keeps its filter" true
    (Option.is_some (Store.root_filter store head.Engine.index_root));
  Alcotest.(check bool) "the moved branch's head has a filter" true
    (Option.is_some
       (Store.root_filter store (Engine.head engine "side").Engine.index_root));
  Alcotest.(check (option string)) "reads still answer" (Some "v200.0")
    (Durable.get t ~branch:"master" (Printf.sprintf "k%04d" (200 * 37 mod 1000)));
  Durable.close t

(* A backed store's stats are the pack's, and its put accounting matches
   an in-memory store fed the same script — including an MBT, whose empty
   tree is stored before the pack is attached and whose bulk build repeats
   empty buckets. *)
let test_stats_are_the_packs () =
  let script t =
    ignore
      (Durable.commit_bulk t ~branch:"master" ~message:"load"
         (List.init 40 (fun i -> (Printf.sprintf "k%04d" (i * 7), "v0")))
        : Engine.commit);
    for c = 1 to 5 do
      ignore (Durable.commit t ~branch:"master" ~message:"c" (puts c 8) : Engine.commit)
    done;
    Durable.fork t ~from:"master" "side";
    ignore
      (Durable.commit t ~branch:"side" ~message:"s" [ Kv.Del "k0007"; Kv.Put ("x", "y") ]
        : Engine.commit)
  in
  List.iter
    (fun (kind, mk) ->
      let counted backend =
        with_dir ("stats-" ^ kind) @@ fun dir ->
        let sink = Telemetry.create () in
        let store = Store.create () in
        Store.set_sink store sink;
        let t =
          match Durable.open_ ~sync:false ~backend ~dir ~empty_index:(mk store) () with
          | Ok t -> t
          | Error e -> Alcotest.failf "Durable.open_: %a" Wal.pp_error e
        in
        script t;
        let st = Store.stats store in
        (match Durable.pack t with
        | Some p ->
            Alcotest.(check int) (kind ^ ": unique nodes = Pack.count") (Pack.count p)
              st.Store.unique_nodes;
            Alcotest.(check int) (kind ^ ": stored bytes = Pack.stored_bytes")
              (Pack.stored_bytes p) st.Store.stored_bytes
        | None -> ());
        Durable.close t;
        List.map (Telemetry.counter sink)
          [ "store.put"; "store.put_unique"; "store.put_unique_bytes" ]
        @ [ st.Store.puts ]
      in
      let in_pack = counted `Pack in
      Alcotest.(check (list int)) (kind ^ ": put accounting as in memory")
        (counted `Snapshot) in_pack)
    [ ("pos", mk_pos); ("mbt", mk_mbt) ]

(* A checkpoint, then commits across a roll: the run fsyncs the journal
   once per commit and the pack not at all, until the next checkpoint
   fsyncs each sealed segment and the active one. *)
let test_durable_roll_fsyncs () =
  with_dir "durable-roll-fsync" @@ fun dir ->
  let sink = Telemetry.create () in
  let counter = Telemetry.counter sink in
  let t =
    match
      Durable.open_ ~sync:true ~backend:`Pack ~dir
        ~empty_index:(mk_mpt_with_sink sink) ()
    with
    | Ok t -> t
    | Error e -> Alcotest.failf "Durable.open_: %a" Wal.pp_error e
  in
  checkpoint_side_branch t;
  let fsync0 = counter "pack.fsync" and wal0 = counter "wal.fsync" in
  let roll0 = counter "pack.roll" in
  let commits = roll_run t in
  let rolls = counter "pack.roll" - roll0 in
  Alcotest.(check bool) "the run rolled a segment" true (rolls >= 1);
  Alcotest.(check int) "no pack fsync inside the commits" 0
    (counter "pack.fsync" - fsync0);
  Alcotest.(check int) "one journal fsync per commit" commits
    (counter "wal.fsync" - wal0);
  Durable.checkpoint t;
  Alcotest.(check int) "the checkpoint fsyncs each sealed segment + the active"
    (rolls + 1)
    (counter "pack.fsync" - fsync0);
  Durable.close t

(* Power loss after a roll inside a commit run: the journal is fsynced
   per commit, the sealed segment is not.  Cut that segment at every
   record boundary, one byte either side, and a seeded sample of other
   offsets past its checkpointed length: reopen clamps it, and replay
   regenerates every lost node — the exact committed state, every node
   of the undamaged pack present and verified, a clean scrub. *)
let test_durable_sealed_power_loss () =
  with_dir "durable-sealed" @@ fun dir ->
  let t = open_durable_exn ~sync:true ~backend:`Pack dir in
  let pdir = Durable.pack_dir dir in
  let sealed = seg_path pdir 0 in
  checkpoint_side_branch t;
  let synced = file_len sealed in
  ignore (roll_run t : int);
  let final = state (Durable.engine t) in
  let ids = Pack.segment_ids (Option.get (Durable.pack t)) in
  Alcotest.(check bool) "segment 0 was sealed by a roll" true
    (List.length ids >= 2);
  (* Abandoned without a checkpoint or close: the power-loss image. *)
  let image = tree dir in
  let blob = read_file sealed in
  let len = String.length blob in
  let all_nodes =
    List.concat_map
      (fun id -> List.map fst (record_ends (read_file (seg_path pdir id))))
      ids
  in
  let boundaries =
    List.filter_map
      (fun (_, e) -> if e > synced then Some e else None)
      (record_ends blob)
  in
  let rng = Rng.create 22 in
  let cuts =
    List.sort_uniq compare
      (List.filter
         (fun c -> c >= synced && c <= len)
         (synced
         :: List.concat_map (fun b -> [ b - 1; b; b + 1 ]) boundaries
         @ List.init 16 (fun _ -> synced + Rng.int rng (len - synced))))
  in
  Alcotest.(check bool) "records past the checkpoint in the sealed segment"
    true (List.length boundaries >= 5);
  List.iter
    (fun cut ->
      restore_tree dir image;
      Unix.truncate sealed cut;
      let what = Printf.sprintf "sealed seg cut@%d" cut in
      let t = open_durable_exn ~sync:false ~backend:`Pack dir in
      Alcotest.check state_testable (what ^ ": replays the committed state")
        final
        (state (Durable.engine t));
      let p = Option.get (Durable.pack t) in
      List.iter
        (fun h ->
          match Pack.get p h with
          | Some _ -> ()
          | None -> Alcotest.failf "%s: a node was not regenerated" what
          | exception Store.Tampered _ -> Alcotest.failf "%s: `Tampered" what)
        all_nodes;
      Alcotest.(check (list string)) (what ^ ": scrub is clean") []
        (List.map Hash.to_hex (Pack.scrub p));
      Durable.close t)
    cuts

(* The backend is read from disk: a stated one that contradicts a
   checkpointed directory is refused before anything is written, and an
   unstated one opens a pack directory as a pack — its checkpoint writes
   heads, never a store.<gen> snapshot beside pack/. *)
let test_durable_backend_from_disk () =
  with_dir "durable-detect" @@ fun dir ->
  Unix.mkdir dir 0o755;
  let pdir = Filename.concat dir "p" and sdir = Filename.concat dir "s" in
  let final = run_script ~checkpoint_after:(List.length script - 1) pdir in
  let t = open_durable_exn ~sync:false ~backend:`Snapshot sdir in
  ignore (Durable.commit t ~branch:"master" ~message:"s" [ Kv.Put ("a", "1") ]
          : Engine.commit);
  Durable.checkpoint t;
  Durable.close t;
  List.iter
    (fun (d, wrong) ->
      let before = tree d in
      (match
         Durable.open_ ~sync:false ~backend:wrong ~dir:d
           ~empty_index:(mk_mpt ()) ()
       with
      | Error (`Malformed _) -> ()
      | Error e -> Alcotest.failf "unexpected error: %a" Wal.pp_error e
      | Ok t ->
          Durable.close t;
          Alcotest.failf "%s: ACCEPTED a contradicting backend" d);
      Alcotest.(check (list (pair string string)))
        (d ^ ": refused open leaves the directory untouched") before (tree d))
    [ (pdir, `Snapshot); (sdir, `Pack) ];
  let t =
    match Durable.open_ ~sync:false ~dir:pdir ~empty_index:(mk_mpt ()) () with
    | Ok t -> t
    | Error e -> Alcotest.failf "Durable.open_: %a" Wal.pp_error e
  in
  Alcotest.(check bool) "opened as a pack" true (Durable.backend t = `Pack);
  Alcotest.check state_testable "every record there" final
    (state (Durable.engine t));
  Durable.checkpoint t;
  Durable.close t;
  Alcotest.(check bool) "no store.<gen> beside pack/" false
    (Sys.file_exists (Filename.concat pdir "store.2"));
  let t = open_durable_exn ~sync:false ~backend:`Pack pdir in
  Alcotest.check state_testable "the pack reopens whole" final
    (state (Durable.engine t));
  Durable.close t

(* --- registration ------------------------------------------------------------- *)

let () =
  let qcheck = QCheck_alcotest.to_alcotest in
  Alcotest.run "pack"
    [ ( "roundtrip",
        [ Alcotest.test_case "append/get/reopen/dedup" `Quick test_roundtrip;
          Alcotest.test_case "un-synced tail is adopted" `Quick
            test_tail_adoption;
          Alcotest.test_case "append after torn-tail clamp" `Quick
            test_append_after_clamp ] );
      ( "torn-write crash simulator",
        [ Alcotest.test_case "segment truncation at every byte offset" `Slow
            test_segment_truncation_every_offset;
          Alcotest.test_case "index truncation at every byte offset" `Slow
            test_index_truncation_every_offset;
          Alcotest.test_case "sealed segment cut at every byte offset" `Slow
            test_sealed_segment_power_loss;
          Alcotest.test_case "short segment: garbage refused, torn magic clamps"
            `Quick test_short_segment_verdict;
          Alcotest.test_case "a roll fsyncs nothing, the next sync flush all"
            `Quick test_roll_defers_fsync ] );
      ( "corruption",
        [ Alcotest.test_case "mid-segment flip is `Tampered + scrubbed" `Quick
            test_midsegment_flip_tampered;
          Alcotest.test_case "seeded flip storms: zero wrong reads" `Quick
            test_flip_storms ] );
      ( "record format",
        [ Alcotest.test_case "every bit flip: verbatim or `Tampered" `Quick
            test_every_bit_flip;
          Alcotest.test_case "node bytes hashed once per read, never on append"
            `Quick test_hash_once;
          Alcotest.test_case "SIRIPACKSEG1 refused by name" `Quick
            test_retired_format_refused;
          Alcotest.test_case "seeded segment bytes pinned" `Quick
            test_segment_bytes_pinned ] );
      ("index properties", [ qcheck qcheck_rebuild_identity ]);
      ("record properties", [ qcheck qcheck_record_roundtrip ]);
      ( "compaction",
        [ Alcotest.test_case "drop + rewrite + swap" `Quick
            test_compaction_drops_and_survives;
          Alcotest.test_case "kill at every step: old or new, never a mix"
            `Quick test_compaction_kill_points;
          Alcotest.test_case "manifest and index tmp files swept on open"
            `Quick test_tmp_files_swept ] );
      ( "retry",
        [ Alcotest.test_case "with_retry semantics + telemetry" `Quick
            test_with_retry;
          Alcotest.test_case "with_retry full-jitter schedule" `Quick
            test_with_retry_jitter;
          Alcotest.test_case "io gates: transient/flip/truncate" `Quick
            test_io_gate_transients ] );
      ( "store backend",
        [ Alcotest.test_case "write-through: reads come from the pack" `Quick
            test_store_write_through;
          Alcotest.test_case "gc compacts the pack and stays coherent" `Quick
            test_store_gc_compacts_backend;
          Alcotest.test_case "readers beside a 100k-record appender" `Quick
            test_readers_beside_appender;
          Alcotest.test_case "append publishes after flush" `Quick
            test_append_publishes_after_flush;
          Alcotest.test_case "pread: >64 KiB record, short count at torn tail"
            `Quick test_pread_large_and_torn ] );
      ( "cold read",
        [ Alcotest.test_case "allocates the node bytes plus a constant" `Quick
            test_cold_read_allocation;
          Alcotest.test_case "buffer checkout: threads and domains" `Quick
            test_shared_read_buffer;
          Alcotest.test_case "every head byte checked on the bytes path" `Quick
            test_head_flips_on_bytes_path ] );
      ( "durable engine",
        [ Alcotest.test_case "commit/replay/reopen equality" `Quick
            test_durable_pack_reopen;
          Alcotest.test_case "checkpoint: pack fsync + heads, no snapshot"
            `Quick test_durable_pack_checkpoint;
          Alcotest.test_case "backend read from disk, contradiction refused"
            `Quick test_durable_backend_from_disk;
          Alcotest.test_case "journal truncation at every byte offset" `Slow
            test_durable_pack_journal_crash;
          Alcotest.test_case "a roll inside commits: one journal fsync each"
            `Quick test_durable_roll_fsyncs;
          Alcotest.test_case "bounded by count: empty table, head filters only"
            `Quick test_bounded_by_count;
          Alcotest.test_case "stats are the pack's, put accounting unchanged"
            `Quick test_stats_are_the_packs;
          Alcotest.test_case "sealed segment cut: replay regenerates" `Slow
            test_durable_sealed_power_loss ] ) ]
