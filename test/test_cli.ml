(* Integration: the CLI's documented exit codes, pinned by running the
   real binaries as subprocesses.  The convention under test:

     0  clean          (recover/checkpoint clean journal, scrub intact,
                        verify-proof verified)
     1  degraded       (torn tail clamped, integrity violations found,
                        proof refused)
     2  unrecoverable  (mid-journal corruption, malformed/tampered input)

   Scripts and the crash harness branch on these codes, so a drift here
   is an interface break even though no OCaml API changed. *)

open Siri_core
module Store = Siri_store.Store
module Hash = Siri_crypto.Hash
module Durable = Siri_wal.Durable
module Telemetry = Siri_telemetry.Telemetry

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
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "siri-cli-%s-%d-%d" name (Unix.getpid ()) !dir_counter)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let bin_dir () =
  match Sys.getenv_opt "SIRI_BIN_DIR" with
  | Some d -> d
  | None ->
      if Sys.file_exists "../bin/siri_cli.exe" then "../bin"
      else "_build/default/bin"

(* Run the CLI, swallowing its output; return the exit code. *)
let run_cli args =
  let exe = Filename.concat (bin_dir ()) "siri_cli.exe" in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      Unix.stdin null null
  in
  Unix.close null;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      Alcotest.failf "siri_cli killed by signal %d" n

let check_exit what expected args =
  Alcotest.(check int) (what ^ ": " ^ String.concat " " args) expected
    (run_cli args)

(* Run the CLI with stdout and stderr captured; return the exit code and
   both outputs. *)
let run_cli_io args =
  let exe = Filename.concat (bin_dir ()) "siri_cli.exe" in
  let out = Filename.temp_file "siri-cli" ".out" in
  let err = Filename.temp_file "siri-cli" ".err" in
  let fd_out = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let fd_err = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd_out
      fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  let code =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED code -> code
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
        Alcotest.failf "siri_cli killed by signal %d" n
  in
  let read f =
    let s = In_channel.with_open_bin f In_channel.input_all in
    Sys.remove f;
    s
  in
  let out = read out in
  (code, out, read err)

let run_cli_out args =
  let code, out, _ = run_cli_io args in
  (code, out)

let check_out what (code, out) args =
  let what = what ^ ": " ^ String.concat " " args in
  Alcotest.(check (pair int string)) what (code, out) (run_cli_out args)

let write_tsv path entries =
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun (k, v) -> Printf.fprintf oc "%s\t%s\n" k v) entries)

let tsv_lines entries =
  String.concat "" (List.map (fun (k, v) -> k ^ "\t" ^ v ^ "\n") entries)

let mk_index store =
  Siri_pos.Pos_tree.generic
    (Siri_pos.Pos_tree.empty store (Siri_pos.Pos_tree.config ()))

(* A durable directory with [n] committed batches, cleanly closed. *)
let seed_durable ?(n = 5) dir =
  let store = Store.create () in
  let d =
    match Durable.open_ ~sync:false ~dir ~empty_index:(mk_index store) () with
    | Ok d -> d
    | Error _ -> Alcotest.fail "seed open"
  in
  for i = 1 to n do
    ignore
      (Durable.commit d ~branch:"master" ~message:(Printf.sprintf "c%d" i)
         [ Kv.Put (Printf.sprintf "k%d" i, Printf.sprintf "v%d" i) ])
  done;
  Durable.close d

let append_bytes path s =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

let flip_byte path off =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.of_string (really_input_string ic n) in
  close_in ic;
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x41));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_recover_exit_codes () =
  with_dir "recover" @@ fun dir ->
  let d1 = Filename.concat dir "clean" in
  seed_durable d1;
  check_exit "clean journal" 0 [ "recover"; d1 ];
  (* torn tail: garbage appended after the last good frame is clamped *)
  let d2 = Filename.concat dir "torn" in
  seed_durable d2;
  append_bytes (Durable.journal_path d2) "\x99\x88\x77";
  check_exit "torn tail clamped" 1 [ "recover"; d2 ];
  (* the clamp truncates on disk: a second recovery is clean *)
  check_exit "clean after clamp" 0 [ "recover"; d2 ];
  (* mid-journal corruption is unrecoverable, not clamp-able.  The flip
     must land past the first frame's 4-byte length field (a damaged
     length reads as a torn tail, by design): offset 20 is inside the
     frame's 32-byte digest, a guaranteed checksum mismatch. *)
  let d3 = Filename.concat dir "corrupt" in
  seed_durable d3;
  flip_byte (Durable.journal_path d3) 20;
  check_exit "mid-journal corruption" 2 [ "recover"; d3 ]

let test_checkpoint_exit_codes () =
  with_dir "checkpoint" @@ fun dir ->
  let d = Filename.concat dir "ck" in
  seed_durable d;
  check_exit "checkpoint clean" 0 [ "checkpoint"; d ];
  (* after the checkpoint the journal is truncated: recover sees clean *)
  check_exit "recover after checkpoint" 0 [ "recover"; d ];
  (* the pack backend follows the same convention *)
  let store = Store.create () in
  let dp = Filename.concat dir "ckp" in
  (match
     Durable.open_ ~sync:false ~backend:`Pack ~dir:dp
       ~empty_index:(mk_index store) ()
   with
  | Ok t ->
      ignore (Durable.commit t ~branch:"master" ~message:"p" [ Kv.Put ("a", "1") ]);
      Durable.checkpoint t;
      Durable.close t
  | Error _ -> Alcotest.fail "pack seed");
  (* the backend is read from the directory: no flag needed to reopen *)
  check_exit "recover a checkpointed pack directory" 0 [ "recover"; dp ];
  check_exit "pack checkpoint" 0 [ "checkpoint"; dp ];
  check_exit "recover after a pack checkpoint" 0 [ "recover"; dp ]

let test_scrub_exit_codes () =
  with_dir "scrub" @@ fun dir ->
  (* an intact snapshot: build a store, save, scrub *)
  let store = Store.create () in
  let inst = mk_index store in
  let v =
    Generic.of_entries inst
      (List.init 50 (fun i -> (Printf.sprintf "k%03d" i, "v")))
  in
  let snap = Filename.concat dir "store" in
  Store.save ~sync:false store snap;
  check_exit "intact store" 0 [ "scrub"; snap ];
  (* silent payload damage (hash kept, bytes changed) -> violations, 1 *)
  Store.corrupt store v.Generic.root;
  let bad = Filename.concat dir "bad" in
  Store.save ~sync:false store bad;
  check_exit "corrupt node found" 1 [ "scrub"; bad ];
  (* an unreadable file -> 2 *)
  let junk = Filename.concat dir "junk" in
  let oc = open_out_bin junk in
  output_string oc "not a store file";
  close_out oc;
  check_exit "malformed store file" 2 [ "scrub"; junk ];
  (* overwrite the first bytes of [path] with [magic] *)
  let stamp path magic =
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
    ignore (Unix.write_substring fd magic 0 (String.length magic) : int);
    Unix.close fd
  in
  (* a snapshot in the retired SIRISTORE2 format -> 2 *)
  let snap2 = Filename.concat dir "store2" in
  Store.save ~sync:false store snap2;
  stamp snap2 "SIRISTORE2";
  check_exit "retired snapshot format" 2 [ "scrub"; snap2 ];
  (* a pack segment in a retired format (SIRIPACKSEG1, SIRIPACKSEG2) -> 2 *)
  List.iter
    (fun magic ->
      let pdir = Filename.concat dir ("pack-" ^ magic) in
      (match Siri_pack.Pack.open_ pdir with
      | Ok (p, _) ->
          Siri_pack.Pack.append p [ (Hash.of_string "x", "x", [||]) ];
          Siri_pack.Pack.close p
      | Error _ -> Alcotest.fail "pack open");
      check_exit "intact pack" 0 [ "scrub"; pdir ];
      stamp (Filename.concat pdir (Siri_pack.Segment.filename 0)) magic;
      check_exit ("retired pack format " ^ magic) 2 [ "scrub"; pdir ])
    [ "SIRIPACKSEG1"; "SIRIPACKSEG2" ]

(* Every entry under [dir] with its bytes. *)
let tree dir =
  let rec walk rel acc =
    let p = Filename.concat dir rel in
    if Sys.is_directory p then
      Array.fold_left
        (fun acc n -> walk (Filename.concat rel n) acc)
        ((rel ^ "/", "") :: acc) (Sys.readdir p)
    else (rel, In_channel.with_open_bin p In_channel.input_all) :: acc
  in
  List.sort compare (walk "" [])

(* Sharded-only commands refuse a flat directory and leave it as it is. *)
let test_flat_dir_refusals () =
  with_dir "flat" @@ fun dir ->
  let d = Filename.concat dir "flat" in
  seed_durable d;
  let before = tree d in
  check_exit "reshard of a flat directory" 2 [ "reshard"; "--shards"; "2"; d ];
  Alcotest.(check (list (pair string string)))
    "reshard left the directory byte-for-byte unchanged" before (tree d);
  check_exit "stats of a flat directory" 2 [ "stats"; d ];
  check_exit "recover after the refusals" 0 [ "recover"; d ]

let test_verify_proof_exit_codes () =
  with_dir "vproof" @@ fun dir ->
  let tsv = Filename.concat dir "data.tsv" in
  let oc = open_out tsv in
  for i = 1 to 40 do
    Printf.fprintf oc "key%03d\tvalue%d\n" i i
  done;
  close_out oc;
  let proof = Filename.concat dir "p.bin" in
  check_exit "prove writes a proof" 0
    [ "prove"; "-i"; "pos"; tsv; "key007"; "absent-key"; "-o"; proof ];
  check_exit "proof verifies against data" 0
    [ "verify-proof"; "-i"; "pos"; proof; "--data"; tsv ];
  (* refused against the wrong trusted root -> 1 *)
  check_exit "proof refused against wrong root" 1
    [ "verify-proof"; "-i"; "pos"; proof; "--root"; String.make 64 '0' ];
  (* a flipped byte in the encoded proof is tampered/malformed -> 2 *)
  flip_byte proof ((Unix.stat proof).Unix.st_size / 2);
  check_exit "tampered proof file" 2
    [ "verify-proof"; "-i"; "pos"; proof; "--data"; tsv ]

let test_connect_exit_codes () =
  (* no server listening: connect must fail with a nonzero code, and
     missing address arguments are a usage error *)
  with_dir "connect" @@ fun dir ->
  let sock = Filename.concat dir "nope.sock" in
  Alcotest.(check bool) "dead socket refused" true
    (run_cli [ "connect"; "--unix"; sock ] <> 0);
  check_exit "missing address" 2 [ "connect" ];
  (* a malformed pair is a usage error, refused before dialing *)
  check_exit "malformed --put" 2
    [ "connect"; "--unix"; sock; "--put"; "k=v"; "--put"; "novalue" ];
  (* one action per call, and scan bounds need --scan: both refused
     before dialing, so a dead socket still answers 2 *)
  check_exit "two actions" 2 [ "connect"; "--unix"; sock; "--get"; "a"; "--head" ];
  check_exit "put and get" 2
    [ "connect"; "--unix"; sock; "--put"; "b=2"; "--get"; "a" ];
  check_exit "--lo without --scan" 2 [ "connect"; "--unix"; sock; "--lo"; "a" ];
  check_exit "--limit without --scan" 2
    [ "connect"; "--unix"; sock; "--get"; "a"; "--limit"; "3" ];
  Alcotest.(check bool) "--scan with bounds dials" true
    (run_cli [ "connect"; "--unix"; sock; "--scan"; "--lo"; "a"; "--limit"; "3" ]
    = 1)

(* A TSV line without a TAB is reported as FILE:N and exits 2 — from every
   command, and before a directory is created. *)
let test_malformed_tsv () =
  with_dir "badtsv" @@ fun dir ->
  let good = Filename.concat dir "good.tsv" and bad = Filename.concat dir "bad.tsv" in
  write_tsv good [ ("a", "1"); ("b", "2") ];
  Out_channel.with_open_bin bad (fun oc ->
      output_string oc "a\t1\n\nno-tab-here\nc\t3\n");
  let proof = Filename.concat dir "p.bin" in
  check_exit "prove" 0 [ "prove"; good; "a"; "-o"; proof ];
  let out = Filename.concat dir "out" in
  List.iter
    (fun args ->
      let code, stdout, stderr = run_cli_io args in
      let what = String.concat " " args in
      Alcotest.(check int) ("exit: " ^ what) 2 code;
      Alcotest.(check string) ("no output: " ^ what) "" stdout;
      Alcotest.(check string) ("reported: " ^ what)
        (bad ^ ":3: missing TAB separator\n") stderr;
      Alcotest.(check bool) ("nothing created: " ^ what) false
        (Sys.file_exists out))
    [ [ "get"; bad; "a" ];
      [ "verify-proof"; proof; "--data"; bad ];
      [ "pack"; bad; out ];
      [ "pack"; "--shards"; "2"; bad; out ] ]

(* A snapshot that cannot be read, or a path that cannot be written, is
   refused by name with exit 2 and leaves nothing behind: no pack
   directory, no temp file. *)
let test_bad_paths () =
  with_dir "badpath" @@ fun dir ->
  let tsv = Filename.concat dir "data.tsv" in
  write_tsv tsv [ ("a", "1"); ("b", "2") ];
  let junk = Filename.concat dir "junk" in
  Out_channel.with_open_bin junk (fun oc -> output_string oc "JUNK");
  let taken = Filename.concat dir "taken" in
  Unix.mkdir taken 0o755;
  let refused args err =
    let code, stdout, stderr = run_cli_io args in
    let what = String.concat " " args in
    Alcotest.(check int) ("exit: " ^ what) 2 code;
    Alcotest.(check string) ("no output: " ^ what) "" stdout;
    Alcotest.(check string) ("reported: " ^ what) err stderr
  in
  let out = Filename.concat dir "out" in
  refused [ "pack"; "--from-snapshot"; junk; out ]
    (Printf.sprintf "pack: %s: Store.load: bad magic\n" junk);
  Alcotest.(check bool) "no pack directory" false (Sys.file_exists out);
  let missing = Filename.concat dir "missing/x" in
  refused [ "snapshot"; tsv; missing ]
    (Printf.sprintf "snapshot: %s: No such file or directory\n" missing);
  refused [ "snapshot"; tsv; taken ]
    (Printf.sprintf "snapshot: %s: Is a directory\n" taken);
  Alcotest.(check (list string)) "no temp file left" [ "data.tsv"; "junk"; "taken" ]
    (List.sort compare (Array.to_list (Sys.readdir dir)))

(* compact keeps the closure of its roots: a malformed or unknown root
   is refused and leaves the pack as it is. *)
let test_compact_exit_codes () =
  with_dir "compact" @@ fun dir ->
  let module Pack = Siri_pack.Pack in
  let pdir = Filename.concat dir "pack" in
  let p =
    match Pack.open_ pdir with Ok (p, _) -> p | Error _ -> Alcotest.fail "pack open"
  in
  let store = Store.create () in
  Pack.attach p store;
  let v =
    Generic.of_entries (mk_index store)
      (List.init 200 (fun i -> (Printf.sprintf "k%03d" i, "v")))
  in
  let live = Hash.Set.cardinal (Store.reachable store v.Generic.root) in
  let orphan = Hash.of_string "orphan" in
  Pack.append p [ (orphan, "orphan", [||]) ];
  Pack.close p;
  let root = Hash.to_hex v.Generic.root in
  check_exit "malformed root" 2 [ "compact"; "--root"; "zz"; pdir ];
  check_exit "unknown root" 2 [ "compact"; "--root"; String.make 64 '1'; pdir ];
  check_exit "no roots: nothing dropped" 0 [ "compact"; pdir ];
  check_exit "compact to the root's closure" 0 [ "compact"; "--root"; root; pdir ];
  match Pack.open_ pdir with
  | Error _ -> Alcotest.fail "compacted pack reopens"
  | Ok (p, _) ->
      Alcotest.(check int) "the closure is kept" live (Pack.count p);
      Alcotest.(check bool) "the orphan is dropped" false (Pack.mem p orphan);
      Pack.close p

(* The TSV commands against a sorted-assoc model: every printed record,
   count and diff line is what the model computes, on every kind. *)
let test_tsv_commands () =
  with_dir "tsv" @@ fun dir ->
  let a = Filename.concat dir "a.tsv" and b = Filename.concat dir "b.tsv" in
  let code, gen = run_cli_out [ "gen"; "--count"; "300" ] in
  Alcotest.(check int) "gen" 0 code;
  let parse s =
    List.filter_map
      (fun line ->
        match String.index_opt line '\t' with
        | None -> None
        | Some i ->
            Some
              ( String.sub line 0 i,
                String.sub line (i + 1) (String.length line - i - 1) ))
      (String.split_on_char '\n' s)
  in
  let model_a = List.sort compare (parse gen) in
  (* the edited copy: every 7th record dropped, every 5th changed, two
     added (one before and one after every generated key) *)
  let model_b =
    List.sort compare
      (("0-added", "new") :: ("~-added", "new")
      :: List.concat
           (List.mapi
              (fun i (k, v) ->
                if i mod 7 = 0 then []
                else if i mod 5 = 0 then [ (k, "edited") ]
                else [ (k, v) ])
              model_a))
  in
  write_tsv a model_a;
  write_tsv b model_b;
  let keys = Array.of_list (List.map fst model_a) in
  let lo = keys.(40) and hi = keys.(120) in
  let hit_k, hit_v = List.nth model_a 77 in
  let in_range ~hi_incl (k, _) =
    k >= lo && if hi_incl then k <= hi else k < hi
  in
  let diff_lines =
    let tag k =
      match (List.assoc_opt k model_a, List.assoc_opt k model_b) with
      | Some _, None -> Some ("- " ^ k)
      | None, Some _ -> Some ("+ " ^ k)
      | Some x, Some y when x <> y -> Some ("~ " ^ k)
      | _ -> None
    in
    List.sort_uniq compare (List.map fst (model_a @ model_b))
    |> List.filter_map tag
    |> List.map (fun l -> l ^ "\n")
    |> String.concat ""
  in
  let merged =
    List.sort_uniq compare (List.map fst (model_a @ model_b))
    |> List.map (fun k ->
           match List.assoc_opt k model_b with
           | Some v -> (k, v)
           | None -> (k, List.assoc k model_a))
  in
  let take n l = List.filteri (fun i _ -> i < n) l in
  List.iter
    (fun kind ->
      let i = [ "-i"; kind ] in
      check_out (kind ^ " get hit") (0, hit_v ^ "\n") ([ "get" ] @ i @ [ a; hit_k ]);
      check_out (kind ^ " get miss") (1, "") ([ "get" ] @ i @ [ a; "0-absent" ]);
      let ranged = List.filter (in_range ~hi_incl:true) model_a in
      check_out (kind ^ " range") (0, tsv_lines ranged)
        ([ "range" ] @ i @ [ a; "--lo"; lo; "--hi"; hi ]);
      let scanned = List.filter (in_range ~hi_incl:false) model_a in
      if kind = "mbt" then begin
        check_exit "mbt refuses scan" 2
          ([ "scan" ] @ i @ [ a; "--lo"; lo; "--hi"; hi; "--limit"; "7" ]);
        check_exit "mbt refuses scan --count" 2 ([ "scan"; "--count" ] @ i @ [ a ])
      end
      else begin
        check_out (kind ^ " scan --limit") (0, tsv_lines (take 7 scanned))
          ([ "scan" ] @ i @ [ a; "--lo"; lo; "--hi"; hi; "--limit"; "7" ]);
        check_out (kind ^ " scan --count")
          (0, Printf.sprintf "%d\n" (List.length model_a))
          ([ "scan"; "--count" ] @ i @ [ a ]);
        check_out (kind ^ " scan --count bounded")
          (0, Printf.sprintf "%d\n" (List.length scanned))
          ([ "scan"; "--count" ] @ i @ [ a; "--lo"; lo; "--hi"; hi ])
      end;
      check_out (kind ^ " diff") (0, diff_lines) ([ "diff" ] @ i @ [ a; b ]);
      check_out (kind ^ " merge") (0, tsv_lines merged)
        ([ "merge" ] @ i @ [ "--policy"; "right"; a; b ]))
    [ "pos"; "mpt"; "mbt"; "mvbt"; "prolly" ]

let () =
  Alcotest.run "cli"
    [ ( "exit codes",
        [ Alcotest.test_case "recover: 0 clean / 1 clamped / 2 corrupt" `Quick
            test_recover_exit_codes;
          Alcotest.test_case "checkpoint: 0 on both backends" `Quick
            test_checkpoint_exit_codes;
          Alcotest.test_case "scrub: 0 intact / 1 violations / 2 malformed"
            `Quick test_scrub_exit_codes;
          Alcotest.test_case "reshard/stats: a flat directory refused, 2"
            `Quick test_flat_dir_refusals;
          Alcotest.test_case "verify-proof: 0 ok / 1 refused / 2 tampered"
            `Quick test_verify_proof_exit_codes;
          Alcotest.test_case "connect: errors are nonzero" `Quick
            test_connect_exit_codes;
          Alcotest.test_case "malformed TSV: 2, nothing created" `Quick
            test_malformed_tsv;
          Alcotest.test_case "compact: 0 kept / 2 malformed or unknown root"
            `Quick test_compact_exit_codes;
          Alcotest.test_case "bad snapshot or output path: 2, nothing left"
            `Quick test_bad_paths ] );
      ( "output",
        [ Alcotest.test_case "TSV commands agree with the model" `Quick
            test_tsv_commands ] ) ]
