(* Multi-client server: wire integrity, group commit, fault tolerance.

   The oracles, in rising order of violence:

   - the payload codec is total and the frame layer refuses EVERY
     single-byte flip and EVERY truncation of a request frame — damage
     surfaces as [`Tampered]/[`Malformed], never an exception, never a
     parsed request;
   - group commit conserves its metrics: acked commits = the group-size
     histogram mass, commit groups = WAL frames appended;
   - a SIGKILL at a seeded-random point under concurrent client traffic
     loses NO acked commit and invents no phantom: after restart every
     acked batch reads back exactly, every unacked batch is atomically
     present-or-absent, and resending an unacked request id applies it
     at most once.  Run on both durability backends.

   SIRI_SERVE_ROUNDS (default 3) scales the crash-kill rounds per
   backend; `make serve` runs 25 per backend = 50 seeded kill points. *)

open Siri_core
module Store = Siri_store.Store
module Hash = Siri_crypto.Hash
module Telemetry = Siri_telemetry.Telemetry
module Engine = Siri_forkbase.Engine
module Durable = Siri_wal.Durable
module Dir = Siri_shard.Dir
module Proto = Siri_server.Proto
module Server = Siri_server.Server
module Client = Siri_server.Client

(* --- scratch ----------------------------------------------------------------- *)

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
      (Printf.sprintf "siri-srv-%s-%d-%d" name (Unix.getpid ()) !dir_counter)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let mk_index store =
  Siri_pos.Pos_tree.generic
    (Siri_pos.Pos_tree.empty store (Siri_pos.Pos_tree.config ()))

let open_durable ?(sync = false) ~backend dir =
  (* caches off: session threads read the store concurrently *)
  let empty_index () =
    let store = Store.create ~cache_bytes:0 ~proof_cache_bytes:0 () in
    Store.set_sink store (Telemetry.create ~clock:Unix.gettimeofday ());
    mk_index store
  in
  match Dir.open_ ~sync ~backend ~dir ~empty_index () with
  | Ok d -> d
  | Error e -> Alcotest.failf "durable open: %a" Siri_wal.Wal.pp_error e

(* The one engine of a flat directory, to inspect what the server wrote. *)
let engine d = (Dir.engines d).(0)

let with_server ?config ?(backend = `Snapshot) name f =
  with_dir name @@ fun dir ->
  let durable = open_durable ~backend dir in
  let sock = Filename.concat dir "s" in
  let server = Server.start ?config ~dir:durable ~listen:[ `Unix sock ] () in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f ~dir ~sock ~server ~durable)

let connect_exn ?attempts ?backoff_s ?sink addr =
  match
    Client.connect ?attempts ?backoff_s ?sink ~connect_timeout_s:5.0
      ~request_timeout_s:10.0 ~addr ()
  with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" (Client.error_to_string e)

let commit_exn ?req_id c ~branch ops =
  match Client.commit ?req_id c ~branch ~message:"t" ops with
  | Ok r -> r
  | Error e -> Alcotest.failf "commit: %s" (Client.error_to_string e)

let sink_of server = Server.sink server
let counter server name = Telemetry.counter (sink_of server) name

let has_sub s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- protocol codec ----------------------------------------------------------- *)

let sample_requests =
  [ { Proto.deadline_ms = 0; body = Proto.Ping };
    { Proto.deadline_ms = 250; body = Proto.Head { branch = "master" } };
    { Proto.deadline_ms = 0; body = Proto.Get { branch = "b"; key = "" } };
    { Proto.deadline_ms = 1;
      body = Proto.Get_many { branch = "m"; keys = [ ""; "a"; "\xff\x00" ] } };
    { Proto.deadline_ms = 7;
      body = Proto.Prove_many { branch = "m"; keys = [ "k1"; "k2" ] } };
    { Proto.deadline_ms = 1000;
      body =
        Proto.Commit
          { req_id = "r-1.A_z";
            branch = "master";
            message = "hello\nworld";
            ops = [ Kv.Put ("k", "v"); Kv.Del "gone"; Kv.Put ("", "") ] } };
    { Proto.deadline_ms = 0; body = Proto.Stats } ]

let sample_responses =
  let h = Hash.of_string "x" in
  [ Proto.Pong;
    Proto.Head_r { id = h; root = Hash.of_string "y"; version = 42 };
    Proto.Value None;
    Proto.Value (Some "payload\x00bytes");
    Proto.Values [ ("a", Some "1"); ("b", None) ];
    Proto.Proof { root = h; proof = "\x01\x02\x03" };
    Proto.Committed { req_id = "abc"; commit = h; version = 7; group_size = 3 };
    Proto.Stats_r "{\"counters\":{}}";
    Proto.Err { code = Proto.Overload; detail = "queue full" };
    Proto.Err { code = Proto.Timeout; detail = "" };
    Proto.Err { code = Proto.Tampered; detail = "bad frame" };
    Proto.Err { code = Proto.Read_only; detail = "degraded" };
    Proto.Err { code = Proto.Bad_request; detail = "nope" };
    Proto.Err { code = Proto.Unknown_branch; detail = "feature" } ]

let test_proto_roundtrip () =
  List.iter
    (fun r ->
      match Proto.decode_request (Proto.encode_request r) with
      | Ok r' when r' = r -> ()
      | Ok _ -> Alcotest.fail "request roundtrip changed the message"
      | Error (`Malformed d) -> Alcotest.failf "request refused: %s" d)
    sample_requests;
  List.iter
    (fun r ->
      match Proto.decode_response (Proto.encode_response r) with
      | Ok r' when r' = r -> ()
      | Ok _ -> Alcotest.fail "response roundtrip changed the message"
      | Error (`Malformed d) -> Alcotest.failf "response refused: %s" d)
    sample_responses;
  (* seal/unseal roundtrip *)
  List.iter
    (fun r ->
      let payload = Proto.encode_request r in
      match Proto.unseal (Proto.seal payload) with
      | Ok p when p = payload -> ()
      | _ -> Alcotest.fail "seal/unseal roundtrip")
    sample_requests

let qcheck_proto_roundtrip =
  let open QCheck in
  let gen_req =
    let open Gen in
    let str = string_size ~gen:char (int_bound 40) in
    let key = str in
    oneof
      [ return Proto.Ping;
        map (fun b -> Proto.Head { branch = b }) str;
        map2 (fun b k -> Proto.Get { branch = b; key = k }) str key;
        map2 (fun b ks -> Proto.Get_many { branch = b; keys = ks }) str
          (list_size (int_bound 8) key);
        map2 (fun b ks -> Proto.Prove_many { branch = b; keys = ks }) str
          (list_size (int_bound 8) key);
        map3
          (fun b m ops -> Proto.Commit { req_id = "q.1"; branch = b; message = m; ops })
          str str
          (list_size (int_bound 6)
             (oneof
                [ map2 (fun k v -> Kv.Put (k, v)) key str;
                  map (fun k -> Kv.Del k) key ]));
        return Proto.Stats ]
  in
  let gen =
    Gen.map2 (fun d body -> { Proto.deadline_ms = d; body }) Gen.(int_bound 10_000) gen_req
  in
  QCheck.Test.make ~count:300 ~name:"proto request encode/decode = id"
    (QCheck.make gen) (fun r ->
      match Proto.decode_request (Proto.encode_request r) with
      | Ok r' -> r' = r
      | Error _ -> false)

(* Every single-byte flip of a sealed frame must be refused — and refused
   as a typed error, not an exception.  Every truncation likewise. *)
let test_wire_storm () =
  let frames =
    List.map (fun r -> Proto.seal (Proto.encode_request r)) sample_requests
    @ List.map (fun r -> Proto.seal (Proto.encode_response r)) sample_responses
  in
  let refused = ref 0 in
  List.iter
    (fun frame ->
      let n = String.length frame in
      for off = 0 to n - 1 do
        for _flip = 0 to 1 do
          let delta = if _flip = 0 then 0x01 else 0xA5 in
          let b = Bytes.of_string frame in
          Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor delta));
          match Proto.unseal (Bytes.to_string b) with
          | Ok p ->
              (* a flip that leaves the frame intact is impossible: the
                 digest covers both the length prefix and the payload *)
              Alcotest.failf "flip at %d/%d accepted (payload %d bytes)" off n
                (String.length p)
          | Error (`Tampered _) | Error (`Malformed _) -> incr refused
          | exception e ->
              Alcotest.failf "flip at %d raised %s" off (Printexc.to_string e)
        done
      done;
      for len = 0 to n - 1 do
        match Proto.unseal (String.sub frame 0 len) with
        | Ok _ -> Alcotest.failf "truncation to %d/%d accepted" len n
        | Error (`Tampered _) | Error (`Malformed _) -> incr refused
        | exception e ->
            Alcotest.failf "truncation to %d raised %s" len (Printexc.to_string e)
      done)
    frames;
  Alcotest.(check bool) "storm exercised" true (!refused > 1000);
  (* decoders are total on arbitrary payload bytes too *)
  let rng = Rng.create 20260806 in
  for _ = 1 to 2000 do
    let len = Rng.int rng 200 in
    let s = String.init len (fun _ -> Char.chr (Rng.int rng 256)) in
    (match Proto.decode_request s with Ok _ | Error (`Malformed _) -> ());
    match Proto.decode_response s with Ok _ | Error (`Malformed _) -> ()
  done

(* The same storm against a LIVE session: damaged frames get a typed
   error response (or a hangup), the server survives and keeps serving. *)
let test_wire_storm_live () =
  with_server "storm" @@ fun ~dir:_ ~sock ~server ~durable:_ ->
  let good = Proto.seal (Proto.encode_request { Proto.deadline_ms = 0; body = Proto.Ping }) in
  let rng = Rng.create 7 in
  for _ = 1 to 40 do
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    let b = Bytes.of_string good in
    let off = Rng.int rng (Bytes.length b) in
    Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor (1 + Rng.int rng 255)));
    let s = Bytes.to_string b in
    ignore (Unix.write_substring fd s 0 (String.length s));
    (* the server answers with an error frame, then hangs up *)
    (match Proto.Io.read_frame ~deadline:(Unix.gettimeofday () +. 5.0) fd with
    | Ok payload -> (
        match Proto.decode_response payload with
        | Ok (Proto.Err { code = Proto.Tampered | Proto.Bad_request; _ }) -> ()
        | Ok r ->
            Alcotest.failf "damaged frame got a non-error response (%s)"
              (match r with Proto.Pong -> "pong" | _ -> "other")
        | Error (`Malformed d) -> Alcotest.failf "undecodable error reply: %s" d)
    | Error (`Closed | `Timeout | `Tampered _ | `Malformed _) -> ());
    Unix.close fd
  done;
  Alcotest.(check bool) "refusals metered" true
    (counter server "server.refused.tampered"
     + counter server "server.refused.malformed"
    > 0);
  (* and the server still works *)
  let c = connect_exn (`Unix sock) in
  (match Client.ping c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "server dead after storm: %s" (Client.error_to_string e));
  Client.close c

(* --- end to end --------------------------------------------------------------- *)

let test_e2e_mixed () =
  with_server "e2e" @@ fun ~dir:_ ~sock ~server ~durable ->
  let nthreads = 4 and per = 8 in
  let errors = ref [] in
  let emu = Mutex.create () in
  let threads =
    List.init nthreads (fun w ->
        Thread.create
          (fun () ->
            let c = connect_exn (`Unix sock) in
            for i = 1 to per do
              let k = Printf.sprintf "w%d-%d" w i in
              (match
                 Client.commit c ~branch:"master" ~message:"m"
                   [ Kv.Put (k, k ^ "!") ]
               with
              | Ok _ -> ()
              | Error e ->
                  Mutex.lock emu;
                  errors := Client.error_to_string e :: !errors;
                  Mutex.unlock emu);
              (* interleave reads off the live snapshot *)
              match Client.get c ~branch:"master" k with
              | Ok (Some v) when v = k ^ "!" -> ()
              | Ok _ ->
                  Mutex.lock emu;
                  errors := "read-your-writes violated" :: !errors;
                  Mutex.unlock emu
              | Error e ->
                  Mutex.lock emu;
                  errors := Client.error_to_string e :: !errors;
                  Mutex.unlock emu
            done;
            Client.close c)
          ())
  in
  List.iter Thread.join threads;
  (match !errors with
  | [] -> ()
  | e :: _ -> Alcotest.failf "%d errors, first: %s" (List.length !errors) e);
  (* all keys present via one batched read *)
  let c = connect_exn (`Unix sock) in
  let keys =
    List.concat_map
      (fun w -> List.init per (fun i -> Printf.sprintf "w%d-%d" w (i + 1)))
      (List.init nthreads Fun.id)
  in
  (match Client.get_many c ~branch:"master" keys with
  | Ok pairs ->
      List.iter
        (function
          | k, Some v when v = k ^ "!" -> ()
          | k, _ -> Alcotest.failf "key %s wrong after traffic" k)
        pairs
  | Error e -> Alcotest.failf "get_many: %s" (Client.error_to_string e));
  (* proofs served off the same snapshot verify client-side *)
  (match Client.prove_many c ~branch:"master" [ "w0-1"; "absent-key" ] with
  | Ok (root, proof) -> (
      match Multiproof.decode proof with
      | Error (`Malformed d | `Tampered d) -> Alcotest.failf "proof: %s" d
      | Ok mp ->
          let verifier = mk_index (Store.create ()) in
          Alcotest.(check bool) "proof verifies" true
            (Generic.verify_many verifier ~root mp);
          Alcotest.(check bool) "absent key claimed absent" true
            (List.assoc "absent-key" mp.Multiproof.claims = None))
  | Error e -> Alcotest.failf "prove_many: %s" (Client.error_to_string e));
  Client.close c;
  (* metrics conservation *)
  let sink = sink_of server in
  let total = nthreads * per in
  Alcotest.(check int) "every commit acked" total
    (Telemetry.counter sink "server.commit.acked");
  let groups = Telemetry.counter sink "server.commit.groups" in
  Alcotest.(check int) "groups = journal frames" groups
    (Telemetry.counter sink "wal.append");
  (match Telemetry.histogram sink "server.commit.group_size" with
  | None -> Alcotest.fail "no group_size histogram"
  | Some h ->
      Alcotest.(check int) "histogram mass = acked" total
        (int_of_float (Telemetry.Histo.sum h));
      Alcotest.(check int) "histogram count = groups" groups
        (Telemetry.Histo.count h));
  (* the engine agrees with the wire *)
  let eng = engine durable in
  Alcotest.(check int) "engine version = groups" groups
    (Engine.head eng "master").Engine.version

(* --- serving domains ------------------------------------------------------------ *)

(* Run [f] with the serving width forced through SIRI_DOMAINS (the rule
   [Server.start] follows), restoring the caller's setting after. *)
let with_width n f =
  let prev = Option.value (Sys.getenv_opt "SIRI_DOMAINS") ~default:"" in
  Unix.putenv "SIRI_DOMAINS" (string_of_int n);
  Fun.protect ~finally:(fun () -> Unix.putenv "SIRI_DOMAINS" prev) f

(* 150 start/stop cycles in one process at width 2, each with two
   sessions still open at [stop]: one lands on the main domain, the other
   on the serving domain spawned for it.  OCaml caps a process at 128
   live domains, so a cycle that failed to retire its domain would make
   the spawn after it fail. *)
let test_start_stop_cycles () =
  with_width 2 @@ fun () ->
  with_dir "cycles" @@ fun dir ->
  let sock = Filename.concat dir "s" in
  for cycle = 1 to 150 do
    let durable = open_durable ~backend:`Snapshot dir in
    let server = Server.start ~dir:durable ~listen:[ `Unix sock ] () in
    let c1 = connect_exn (`Unix sock) and c2 = connect_exn (`Unix sock) in
    List.iter
      (fun c ->
        match Client.ping c with
        | Ok () -> ()
        | Error e ->
            Alcotest.failf "cycle %d: ping: %s" cycle (Client.error_to_string e))
      [ c1; c2 ];
    Server.stop server;
    Client.close c1;
    Client.close c2;
    match Domain.join (Domain.spawn ignore) with
    | () -> ()
    | exception Failure msg ->
        Alcotest.failf "cycle %d: serving domains leaked: %s" cycle msg
  done

(* Two clients read a reopened pack-backed server — every node read is a
   cold positioned read — while a third commits.  Every answer is
   checked: preloaded keys keep their value, absent keys stay absent, and
   a committed key is either not yet visible or carries exactly its
   committed value. *)
let test_parallel_cold_reads () =
  with_dir "cold-reads" @@ fun dir ->
  let key i = Printf.sprintf "key-%05d" i in
  let value i = Printf.sprintf "v%d" i in
  let preload = 3000 and commits = 40 in
  let d0 = open_durable ~backend:`Pack dir in
  ignore
    (Dir.commit d0 ~branch:"master" ~message:"preload"
       (List.init preload (fun i -> Kv.Put (key i, value i)))
      : Dir.head);
  (* checkpointed, so the reopen replays nothing: every read is a pack read *)
  Dir.checkpoint d0;
  Dir.close d0;
  let durable = open_durable ~backend:`Pack dir in
  let sock = Filename.concat dir "s" in
  let server = Server.start ~dir:durable ~listen:[ `Unix sock ] () in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let committing = Atomic.make true in
  let reader seed =
    let c = connect_exn (`Unix sock) in
    let rng = Random.State.make [| seed |] in
    let answers = ref 0 and wrong = ref [] in
    let check k expect got =
      if not (expect got) then
        wrong :=
          Printf.sprintf "%s -> %s" k
            (match got with
            | Ok (Some v) -> v
            | Ok None -> "absent"
            | Error e -> Client.error_to_string e)
          :: !wrong
    in
    while Atomic.get committing || !answers < 300 do
      let i = Random.State.int rng (preload + 200) in
      let k = if i < preload then key i else Printf.sprintf "absent-%d" i in
      check k
        (fun got -> got = Ok (if i < preload then Some (value i) else None))
        (Client.get c ~branch:"master" k);
      let j = Random.State.int rng commits in
      let ck = Printf.sprintf "c-%d" j in
      check ck
        (function
          | Ok None -> true | Ok (Some v) -> v = value j | Error _ -> false)
        (Client.get c ~branch:"master" ck);
      answers := !answers + 2
    done;
    Client.close c;
    (!answers, !wrong)
  in
  let results = Array.make 2 (0, []) in
  let readers =
    List.init 2 (fun r ->
        Thread.create (fun () -> results.(r) <- reader (r + 1)) ())
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set committing false;
      List.iter Thread.join readers)
    (fun () ->
      let w = connect_exn (`Unix sock) in
      for j = 0 to commits - 1 do
        let ck = Printf.sprintf "c-%d" j in
        ignore (commit_exn w ~branch:"master" [ Kv.Put (ck, value j) ]);
        match Client.get w ~branch:"master" ck with
        | Ok (Some v) when v = value j -> ()
        | _ -> Alcotest.failf "committed %s does not read back" ck
      done;
      Client.close w);
  Array.iteri
    (fun r (answers, wrong) ->
      Alcotest.(check bool) (Printf.sprintf "reader %d answered" r) true
        (answers >= 300);
      match wrong with
      | [] -> ()
      | w :: _ ->
          Alcotest.failf "reader %d: %d wrong answers, first %s" r
            (List.length wrong) w)
    results;
  Alcotest.(check bool) "reads went to the pack" true
    (counter server "store.get.cold" > 0)

let test_tcp_listener () =
  with_dir "tcp" @@ fun dir ->
  let durable = open_durable ~backend:`Snapshot dir in
  let server = Server.start ~dir:durable ~listen:[ `Tcp 0 ] () in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let port =
        match Server.listening server with
        | [ `Tcp p ] -> p
        | _ -> Alcotest.fail "expected one resolved tcp listener"
      in
      Alcotest.(check bool) "picked a real port" true (port > 0);
      let c = connect_exn (`Tcp port) in
      let _ = commit_exn c ~branch:"master" [ Kv.Put ("t", "1") ] in
      (match Client.get c ~branch:"master" "t" with
      | Ok (Some "1") -> ()
      | _ -> Alcotest.fail "tcp read");
      Client.close c)

(* --- group commit ------------------------------------------------------------- *)

let spin_until ?(timeout = 5.0) what pred =
  let t0 = Unix.gettimeofday () in
  while (not (pred ())) && Unix.gettimeofday () -. t0 < timeout do
    Thread.delay 0.005
  done;
  if not (pred ()) then Alcotest.failf "timed out waiting for %s" what

let test_group_fold () =
  with_server "group" @@ fun ~dir:_ ~sock ~server ~durable ->
  let n = 8 in
  let before = (Engine.head (engine durable) "master").Engine.version in
  Server.pause_writer server;
  let results = Array.make n None in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            let c = connect_exn (`Unix sock) in
            results.(i) <-
              Some
                (Client.commit c ~branch:"master" ~message:"g"
                   [ Kv.Put (Printf.sprintf "g%d" i, "v") ]);
            Client.close c)
          ())
  in
  spin_until "all batches queued" (fun () -> Server.queue_length server = n);
  Server.resume_writer server;
  List.iter Thread.join threads;
  let commits =
    Array.to_list results
    |> List.map (function
         | Some (Ok (h, v, g)) -> (h, v, g)
         | Some (Error e) -> Alcotest.failf "group commit: %s" (Client.error_to_string e)
         | None -> Alcotest.fail "thread did not finish")
  in
  (* every batch folded into the SAME commit: one WAL frame, one version *)
  let h0, v0, _ = List.hd commits in
  List.iter
    (fun (h, v, g) ->
      Alcotest.(check bool) "same commit id" true (Hash.equal h h0);
      Alcotest.(check int) "same version" v0 v;
      Alcotest.(check int) "group size" n g)
    commits;
  Alcotest.(check int) "exactly one version advance" (before + 1)
    (Engine.head (engine durable) "master").Engine.version;
  Alcotest.(check int) "one group" 1 (counter server "server.commit.groups");
  Alcotest.(check int) "all acked" n (counter server "server.commit.acked");
  (* all keys landed *)
  let c = connect_exn (`Unix sock) in
  (match
     Client.get_many c ~branch:"master" (List.init n (Printf.sprintf "g%d"))
   with
  | Ok pairs ->
      Alcotest.(check bool) "all present" true
        (List.for_all (fun (_, v) -> v = Some "v") pairs)
  | Error e -> Alcotest.failf "get_many: %s" (Client.error_to_string e));
  Client.close c

let test_overload () =
  let config = { Server.default_config with max_queue = 2 } in
  with_server ~config "overload" @@ fun ~dir:_ ~sock ~server ~durable:_ ->
  Server.pause_writer server;
  let n = 6 in
  let results = Array.make n None in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            let c = connect_exn (`Unix sock) in
            results.(i) <-
              Some
                (Client.commit c ~branch:"master" ~message:"o"
                   [ Kv.Put (Printf.sprintf "o%d" i, "v") ]);
            Client.close c)
          ())
  in
  (* the two queue slots fill; the other four must be refused promptly *)
  spin_until "overload refusals" (fun () ->
      counter server "server.overload" = n - config.Server.max_queue);
  Server.resume_writer server;
  List.iter Thread.join threads;
  let ok, over =
    Array.to_list results
    |> List.partition_map (function
         | Some (Ok _) -> Left ()
         | Some (Error `Overload) -> Right ()
         | Some (Error e) ->
             Alcotest.failf "unexpected: %s" (Client.error_to_string e)
         | None -> Alcotest.fail "unfinished thread")
  in
  Alcotest.(check int) "queued batches acked" config.Server.max_queue
    (List.length ok);
  Alcotest.(check int) "rest refused `Overload" (n - config.Server.max_queue)
    (List.length over);
  Alcotest.(check int) "overload metered" (n - config.Server.max_queue)
    (counter server "server.overload")

let test_deadline () =
  with_server "deadline" @@ fun ~dir:_ ~sock ~server ~durable ->
  let before = (Engine.head (engine durable) "master").Engine.version in
  Server.pause_writer server;
  let result = ref None in
  let th =
    Thread.create
      (fun () ->
        let c = connect_exn (`Unix sock) in
        result :=
          Some
            (Client.commit ~deadline_ms:40 c ~branch:"master" ~message:"d"
               [ Kv.Put ("late", "v") ]);
        Client.close c)
      ()
  in
  spin_until "batch queued" (fun () -> Server.queue_length server = 1);
  Thread.delay 0.1;  (* let the 40ms budget expire while the writer is held *)
  Server.resume_writer server;
  Thread.join th;
  (match !result with
  | Some (Error `Timeout) -> ()
  | Some (Ok _) -> Alcotest.fail "expired deadline must not be applied"
  | Some (Error e) -> Alcotest.failf "unexpected: %s" (Client.error_to_string e)
  | None -> Alcotest.fail "unfinished");
  Alcotest.(check int) "timeout metered" 1 (counter server "server.timeout");
  Alcotest.(check int) "nothing committed" before
    (Engine.head (engine durable) "master").Engine.version;
  (* a key refused on deadline is absent *)
  let c = connect_exn (`Unix sock) in
  (match Client.get c ~branch:"master" "late" with
  | Ok None -> ()
  | _ -> Alcotest.fail "late write leaked");
  Client.close c

(* --- idempotency -------------------------------------------------------------- *)

let test_idempotent_duplicate () =
  with_server "idem" @@ fun ~dir:_ ~sock ~server ~durable ->
  let c = connect_exn (`Unix sock) in
  let h1, v1, _ = commit_exn ~req_id:"dup-1" c ~branch:"master" [ Kv.Put ("a", "1") ] in
  (* same id again — even with different ops, it is the same request *)
  let h2, v2, _ = commit_exn ~req_id:"dup-1" c ~branch:"master" [ Kv.Put ("a", "2") ] in
  Alcotest.(check bool) "same commit" true (Hash.equal h1 h2);
  Alcotest.(check int) "same version" v1 v2;
  Alcotest.(check bool) "dedup metered" true
    (counter server "server.commit.dedup" >= 1);
  Alcotest.(check int) "applied once" v1
    (Engine.head (engine durable) "master").Engine.version;
  (match Client.get c ~branch:"master" "a" with
  | Ok (Some "1") -> ()
  | _ -> Alcotest.fail "first write must win");
  Client.close c

let test_idempotent_across_restart () =
  with_dir "idem-restart" @@ fun dir ->
  let sock = Filename.concat dir "s" in
  let durable = open_durable ~backend:`Snapshot dir in
  let server = Server.start ~dir:durable ~listen:[ `Unix sock ] () in
  let c = connect_exn (`Unix sock) in
  let h1, v1, _ = commit_exn ~req_id:"boot-7" c ~branch:"master" [ Kv.Put ("x", "1") ] in
  Client.close c;
  Server.stop server;
  (* reopen the directory: the id table rebuilds from the journal *)
  let durable2 = open_durable ~backend:`Snapshot dir in
  let server2 = Server.start ~dir:durable2 ~listen:[ `Unix sock ] () in
  Fun.protect
    ~finally:(fun () -> Server.stop server2)
    (fun () ->
      let c = connect_exn (`Unix sock) in
      let h2, v2, _ =
        commit_exn ~req_id:"boot-7" c ~branch:"master" [ Kv.Put ("x", "999") ]
      in
      Alcotest.(check bool) "same commit across restart" true (Hash.equal h1 h2);
      Alcotest.(check int) "same version across restart" v1 v2;
      Alcotest.(check int) "not reapplied" v1
        (Engine.head (engine durable2) "master").Engine.version;
      (match Client.get c ~branch:"master" "x" with
      | Ok (Some "1") -> ()
      | _ -> Alcotest.fail "retry must not overwrite");
      Client.close c)

(* --- graceful degradation ------------------------------------------------------ *)

let test_read_only_degradation () =
  with_server "degrade" @@ fun ~dir:_ ~sock ~server ~durable ->
  let c = connect_exn (`Unix sock) in
  (* a real tree with internal nodes, so the commit path must fetch them *)
  let ops = List.init 300 (fun i -> Kv.Put (Printf.sprintf "key%04d" i, "v")) in
  let _ = commit_exn c ~branch:"master" ops in
  let eng = engine durable in
  let head = Engine.head eng "master" in
  Store.corrupt (Engine.store eng) head.Engine.index_root;
  (* the commit path hits the damage, refuses, and flips to read-only *)
  (match Client.commit c ~branch:"master" ~message:"t" [ Kv.Put ("key0001", "w") ] with
  | Error (`Tampered _) -> ()
  | Ok _ -> Alcotest.fail "commit over tampered root must be refused"
  | Error e -> Alcotest.failf "expected `Tampered, got %s" (Client.error_to_string e));
  Alcotest.(check bool) "entered read-only" true (Server.read_only server);
  Alcotest.(check int) "transition metered" 1
    (counter server "server.readonly.enter");
  (* further writes are refused read-only, the server stays up *)
  (match Client.commit c ~branch:"master" ~message:"t" [ Kv.Put ("z", "1") ] with
  | Error `Read_only -> ()
  | _ -> Alcotest.fail "writes must be refused in read-only mode");
  (match Client.ping c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "server died: %s" (Client.error_to_string e));
  (* head metadata still serves off the last good snapshot *)
  (match Client.head c ~branch:"master" with
  | Ok (_, root, _) ->
      Alcotest.(check bool) "snapshot root preserved" true
        (Hash.equal root head.Engine.index_root)
  | Error e -> Alcotest.failf "head: %s" (Client.error_to_string e));
  Client.close c

(* A journal fsync that fails under the writer: the group gets an error
   reply (no session hangs), the server turns read-only, and the directory
   reopens to exactly the acked commits. *)
let test_fsync_failure () =
  with_dir "fsync-fail" @@ fun dir ->
  let sock = Filename.concat dir "s" in
  let durable = open_durable ~sync:true ~backend:`Pack dir in
  let server = Server.start ~dir:durable ~listen:[ `Unix sock ] () in
  let acked_id, acked_version =
    Fun.protect
      ~finally:(fun () -> Server.stop server)
      (fun () ->
        let c = connect_exn (`Unix sock) in
        ignore (commit_exn c ~branch:"master" [ Kv.Put ("a", "1") ]);
        let id, version, _ = commit_exn c ~branch:"master" [ Kv.Put ("b", "2") ] in
        (* each acked commit joined its overlapped fsync once *)
        Alcotest.(check int) "wal.fsync_wait samples" 2
          (Option.fold ~none:0 ~some:Telemetry.Histo.count
             (Telemetry.histogram (sink_of server) "wal.fsync_wait"));
        (match Client.stats c with
        | Ok json ->
            Alcotest.(check bool) "wal.fsync_wait in the stats JSON" true
              (has_sub json "\"wal.fsync_wait\"")
        | Error e -> Alcotest.failf "stats: %s" (Client.error_to_string e));
        Siri_io.Io.For_testing.fail_next_fsync (Durable.journal_path dir);
        (match Client.commit c ~branch:"master" ~message:"t" [ Kv.Put ("c", "3") ] with
        | Error `Read_only -> ()
        | Ok _ -> Alcotest.fail "a commit whose fsync failed must not be acked"
        | Error e ->
            Alcotest.failf "expected `Read_only, got %s" (Client.error_to_string e));
        Alcotest.(check int) "transition metered" 1
          (counter server "server.readonly.enter");
        (match Client.commit c ~branch:"master" ~message:"t" [ Kv.Put ("d", "4") ] with
        | Error `Read_only -> ()
        | _ -> Alcotest.fail "writes must be refused after a failed fsync");
        (match Client.get c ~branch:"master" "b" with
        | Ok (Some "2") -> ()
        | _ -> Alcotest.fail "reads must still be served");
        Client.close c;
        (id, version))
  in
  let reopened = open_durable ~sync:true ~backend:`Pack dir in
  let head = Engine.head (engine reopened) "master" in
  Alcotest.(check int) "acked version recovered" acked_version head.Engine.version;
  Alcotest.(check bool) "acked commit recovered" true
    (Hash.equal acked_id head.Engine.id);
  Alcotest.(check (list (option string))) "exactly the acked puts"
    [ Some "1"; Some "2"; None; None ]
    (List.map
       (fun k -> Engine.get (engine reopened) ~branch:"master" k)
       [ "a"; "b"; "c"; "d" ]);
  Dir.close reopened

(* An exception on the commit path, raised by a store read gate on a
   leaf read.  [Failure] is mapped by [Fault.protect] to [`Malformed],
   which on the commit path is a programming error, not tampering (every
   node there passed its content-hash check before it was decoded);
   [Gate_broke] is named by no mapping, so only the writer's handler of
   last resort answers it.  Either way the group gets a read-only reply
   (no session hangs), the server turns read-only once, stays up, and
   [stop] joins the writer.  On the pack backend, with stats on, so the writer cache's
   [store.get.written] shows in the stats JSON. *)
exception Gate_broke

let test_commit_path_exception () =
  List.iter
    (fun (name, exn, refusal) ->
      with_server ~backend:`Pack ("raise-" ^ name)
      @@ fun ~dir:_ ~sock ~server ~durable ->
      let c = connect_exn (`Unix sock) in
      (* ~15 KB of records: a root over several leaves *)
      let ops =
        List.init 300 (fun i -> Kv.Put (Printf.sprintf "key%04d" i, String.make 40 'v'))
      in
      ignore (commit_exn c ~branch:"master" ops);
      ignore (commit_exn c ~branch:"master" [ Kv.Put ("key0007", "w") ]);
      (match Client.stats c with
      | Ok json ->
          Alcotest.(check bool) "store.get.written in the stats JSON" true
            (has_sub json "\"store.get.written\"")
      | Error e -> Alcotest.failf "stats: %s" (Client.error_to_string e));
      let store = Engine.store (engine durable) in
      Store.set_read_gate store
        (Some
           (fun _ bytes ->
             if Split_key.is_leaf (Split_key.parse ~salted:true bytes) then raise exn));
      (match Client.commit c ~branch:"master" ~message:"t" [ Kv.Put ("key0001", "w") ] with
      | Error e ->
          Alcotest.(check string) (name ^ ": refused") refusal
            (match e with
            | `Read_only -> "read-only"
            | `Tampered _ -> "tampered"
            | e -> Client.error_to_string e)
      | Ok _ -> Alcotest.failf "%s: the commit must be refused" name);
      Store.set_read_gate store None;
      Alcotest.(check bool) "entered read-only" true (Server.read_only server);
      Alcotest.(check int) "transition metered" 1
        (counter server "server.readonly.enter");
      (match Client.commit c ~branch:"master" ~message:"t" [ Kv.Put ("z", "1") ] with
      | Error `Read_only -> ()
      | _ -> Alcotest.fail "writes must be refused in read-only mode");
      (match Client.get c ~branch:"master" "key0007" with
      | Ok (Some "w") -> ()
      | _ -> Alcotest.fail "reads must still be served");
      Client.close c)
    [ ("failure", Failure "leaf read", "read-only"); ("unnamed", Gate_broke, "read-only") ]

let test_session_cap () =
  let config = { Server.default_config with session_max = 2 } in
  with_server ~config "cap" @@ fun ~dir:_ ~sock ~server:_ ~durable:_ ->
  let c1 = connect_exn (`Unix sock) in
  let c2 = connect_exn (`Unix sock) in
  (match Client.connect ~attempts:1 ~addr:(`Unix sock) () with
  | Error (`Overload | `Unavailable _) -> ()
  | Ok _ -> Alcotest.fail "third session must be refused"
  | Error e -> Alcotest.failf "expected refusal, got %s" (Client.error_to_string e));
  Client.close c1;
  Client.close c2

let test_unknown_branch () =
  with_server "branch" @@ fun ~dir:_ ~sock ~server:_ ~durable:_ ->
  let c = connect_exn (`Unix sock) in
  (match Client.get c ~branch:"nope" "k" with
  | Error (`Unknown_branch _) -> ()
  | _ -> Alcotest.fail "read on unknown branch");
  (match Client.commit c ~branch:"nope" ~message:"m" [ Kv.Put ("k", "v") ] with
  | Error (`Unknown_branch _) -> ()
  | _ -> Alcotest.fail "commit on unknown branch");
  (* invalid request id is refused before it can poison the journal *)
  (match
     Client.commit ~req_id:"has,comma" c ~branch:"master" ~message:"m"
       [ Kv.Put ("k", "v") ]
   with
  | Error (`Refused _) -> ()
  | _ -> Alcotest.fail "invalid req_id must be refused");
  Client.close c

(* --- metrics conservation (property) ------------------------------------------- *)

let qcheck_conservation =
  let open QCheck in
  let gen_schedule =
    Gen.list_size (Gen.int_range 1 12)
      (Gen.list_size (Gen.int_range 1 4)
         (Gen.map2
            (fun k v -> Kv.Put ("k" ^ string_of_int k, "v" ^ string_of_int v))
            (Gen.int_bound 50) (Gen.int_bound 50)))
  in
  QCheck.Test.make ~count:5
    ~name:"acked commits = group-size histogram mass = client acks"
    (QCheck.make gen_schedule) (fun schedule ->
      with_server "qconserve" @@ fun ~dir:_ ~sock ~server ~durable:_ ->
      let c = connect_exn (`Unix sock) in
      List.iter
        (fun batch -> ignore (commit_exn c ~branch:"master" batch))
        schedule;
      Client.close c;
      let sink = sink_of server in
      let acked = Telemetry.counter sink "server.commit.acked" in
      let groups = Telemetry.counter sink "server.commit.groups" in
      let mass, hcount =
        match Telemetry.histogram sink "server.commit.group_size" with
        | None -> (0, 0)
        | Some h ->
            (int_of_float (Telemetry.Histo.sum h), Telemetry.Histo.count h)
      in
      acked = List.length schedule
      && mass = acked
      && hcount = groups
      && groups = Telemetry.counter sink "wal.append")

(* --- crash-kill harness --------------------------------------------------------- *)

let bin_dir () =
  match Sys.getenv_opt "SIRI_BIN_DIR" with
  | Some d -> d
  | None ->
      if Sys.file_exists "../bin/siri_serve.exe" then "../bin"
      else "_build/default/bin"

let spawn_serve ~dir ~sock ~backend =
  let exe = Filename.concat (bin_dir ()) "siri_serve.exe" in
  let out_r, out_w = Unix.pipe () in
  let pid =
    Unix.create_process exe
      [| exe; dir;
         "--backend"; (match backend with `Pack -> "pack" | `Snapshot -> "snapshot");
         "--unix"; sock |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let ready =
    match input_line ic with
    | line -> String.length line >= 5 && String.sub line 0 5 = "READY"
    | exception End_of_file -> false
  in
  if not ready then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    close_in ic;
    (* forensics hook: keep the directory a failed restart leaves behind *)
    (match Sys.getenv_opt "SIRI_KEEP" with
    | Some _ ->
        ignore
          (Sys.command
             (Printf.sprintf "cp -r %s /tmp/siri-keep.%d"
                (Filename.quote dir) (Unix.getpid ())))
    | None -> ());
    Alcotest.fail "siri_serve did not come up"
  end;
  (pid, ic)

let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* One seeded round: concurrent writers, SIGKILL mid-flight, restart,
   audit.  Returns (issued, acked) counts for the round summary. *)
let crash_round ~backend ~round =
  with_dir (Printf.sprintf "kill-%d" round) @@ fun dir ->
  let data = Filename.concat dir "d" in
  let sock = Filename.concat dir "s" in
  let rng = Rng.create (20260806 + (997 * round) + (match backend with `Pack -> 1 | `Snapshot -> 0)) in
  let pid, ic = spawn_serve ~dir:data ~sock ~backend in
  let issued : (string, (string * string) list) Hashtbl.t = Hashtbl.create 64 in
  let acked : (string, Hash.t) Hashtbl.t = Hashtbl.create 64 in
  let mu = Mutex.create () in
  let stop_flag = Atomic.make false in
  let writer w =
    let c =
      Client.connect ~attempts:1 ~connect_timeout_s:5.0 ~request_timeout_s:5.0
        ~addr:(`Unix sock) ()
    in
    match c with
    | Error _ -> ()
    | Ok c ->
        let i = ref 0 in
        (try
           while not (Atomic.get stop_flag) do
             incr i;
             let id = Printf.sprintf "r%d-w%d-%d" round w !i in
             let kvs =
               [ (Printf.sprintf "w%d-%d-a" w !i, Printf.sprintf "va%d.%d" w !i);
                 (Printf.sprintf "w%d-%d-b" w !i, Printf.sprintf "vb%d.%d" w !i) ]
             in
             Mutex.lock mu;
             Hashtbl.replace issued id kvs;
             Mutex.unlock mu;
             match
               Client.commit ~req_id:id c ~branch:"master" ~message:"kill"
                 (List.map (fun (k, v) -> Kv.Put (k, v)) kvs)
             with
             | Ok (h, _, _) ->
                 Mutex.lock mu;
                 Hashtbl.replace acked id h;
                 Mutex.unlock mu
             | Error _ -> raise Exit
           done
         with Exit -> ());
        Client.close c
  in
  let threads = List.init 3 (fun w -> Thread.create writer w) in
  (* the seeded kill point: 10..160ms into the traffic *)
  Thread.delay (0.01 +. (Rng.float rng *. 0.15));
  Unix.kill pid Sys.sigkill;
  reap pid;
  Atomic.set stop_flag true;
  List.iter Thread.join threads;
  close_in ic;
  (* restart on the same directory: recovery must land on an exact
     committed prefix *)
  let pid2, ic2 = spawn_serve ~dir:data ~sock ~backend in
  let c = connect_exn ~attempts:3 (`Unix sock) in
  (* every acked batch survives, byte-exact *)
  Hashtbl.iter
    (fun id _h ->
      let kvs = Hashtbl.find issued id in
      List.iter
        (fun (k, v) ->
          match Client.get c ~branch:"master" k with
          | Ok (Some v') when v' = v -> ()
          | Ok (Some v') ->
              Alcotest.failf "acked %s: key %s has %S, want %S" id k v' v
          | Ok None -> Alcotest.failf "ACKED COMMIT LOST: %s key %s" id k
          | Error e ->
              Alcotest.failf "read after recovery: %s" (Client.error_to_string e))
        kvs)
    acked;
  (* every unacked batch is atomic: both keys or neither *)
  let unacked =
    Hashtbl.fold
      (fun id kvs acc -> if Hashtbl.mem acked id then acc else (id, kvs) :: acc)
      issued []
  in
  List.iter
    (fun (id, kvs) ->
      let present =
        List.map
          (fun (k, v) ->
            match Client.get c ~branch:"master" k with
            | Ok (Some v') when v' = v -> true
            | Ok (Some v') ->
                Alcotest.failf "unacked %s: key %s has wrong value %S" id k v'
            | Ok None -> false
            | Error e ->
                Alcotest.failf "read after recovery: %s" (Client.error_to_string e))
          kvs
      in
      match present with
      | [ a; b ] when a = b -> ()
      | _ -> Alcotest.failf "TORN COMMIT after crash: %s" id)
    unacked;
  (* idempotent resend of an unacked batch: applied at most once *)
  (match unacked with
  | [] -> ()
  | (id, kvs) :: _ ->
      let ops = List.map (fun (k, v) -> Kv.Put (k, v)) kvs in
      let h1, v1, _ = commit_exn ~req_id:id c ~branch:"master" ops in
      let h2, v2, _ = commit_exn ~req_id:id c ~branch:"master" ops in
      Alcotest.(check bool) "resend converges" true (Hash.equal h1 h2);
      Alcotest.(check int) "resend version stable" v1 v2;
      List.iter
        (fun (k, v) ->
          match Client.get c ~branch:"master" k with
          | Ok (Some v') when v' = v -> ()
          | _ -> Alcotest.failf "resent %s incomplete" id)
        kvs);
  Client.close c;
  (try Unix.kill pid2 Sys.sigterm with Unix.Unix_error _ -> ());
  reap pid2;
  close_in ic2;
  (* no phantoms: every server commit in the journal names issued ids *)
  let durable = open_durable ~backend data in
  let eng = engine durable in
  List.iter
    (fun (cm : Engine.commit) ->
      let p = "serve:" in
      let pl = String.length p in
      if String.length cm.message > pl && String.sub cm.message 0 pl = p then
        String.split_on_char ','
          (String.sub cm.message pl (String.length cm.message - pl))
        |> List.iter (fun id ->
               if not (Hashtbl.mem issued id) then
                 Alcotest.failf "PHANTOM COMMIT: unknown request id %s" id))
    (Engine.history eng "master");
  Dir.close durable;
  (Hashtbl.length issued, Hashtbl.length acked)

(* The real binary on a sharded pack directory, started the way a flat
   one is (--backend pack, no --shards): it must serve the directory as
   it is on disk, every preloaded key and the published sequence. *)
let test_serve_reads_layout () =
  with_dir "serve-layout" @@ fun dir ->
  let data = Filename.concat dir "d" and sock = Filename.concat dir "s" in
  let spec = Siri_shard.Partition.make Siri_shard.Partition.Hash ~shards:4 in
  let d =
    match
      Dir.open_ ~sync:false ~backend:`Pack ~spec ~dir:data
        ~empty_index:(fun () -> mk_index (Store.create ()))
        ()
    with
    | Ok d -> d
    | Error e -> Alcotest.failf "preload open: %a" Siri_wal.Wal.pp_error e
  in
  let keys = List.init 40 (fun i -> Printf.sprintf "pre-%02d" i) in
  ignore
    (Dir.commit d ~branch:"master" ~message:"preload"
       (List.map (fun k -> Kv.Put (k, "v" ^ k)) keys)
      : Dir.head);
  Dir.checkpoint d;
  Dir.close d;
  let pid, ic = spawn_serve ~dir:data ~sock ~backend:`Pack in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      reap pid;
      close_in ic)
  @@ fun () ->
  let c = connect_exn (`Unix sock) in
  (match Client.head c ~branch:"master" with
  | Ok (_, _, version) -> Alcotest.(check int) "published sequence" 1 version
  | Error e -> Alcotest.failf "head: %s" (Client.error_to_string e));
  List.iter
    (fun k ->
      match Client.get c ~branch:"master" k with
      | Ok v -> Alcotest.(check (option string)) k (Some ("v" ^ k)) v
      | Error e -> Alcotest.failf "get %s: %s" k (Client.error_to_string e))
    keys;
  Client.close c;
  Alcotest.(check bool) "no flat journal in the sharded root" false
    (Sys.file_exists (Filename.concat data "journal"))

let rounds () =
  match Sys.getenv_opt "SIRI_SERVE_ROUNDS" with
  | Some s -> (try max 1 (int_of_string s) with Failure _ -> 3)
  | None -> 3

let test_crash_kill backend () =
  let n = rounds () in
  let issued = ref 0 and acked = ref 0 in
  for round = 1 to n do
    let i, a = crash_round ~backend ~round in
    issued := !issued + i;
    acked := !acked + a
  done;
  (* the harness must actually exercise traffic, not kill idle servers *)
  Alcotest.(check bool)
    (Printf.sprintf "traffic flowed (%d issued, %d acked over %d kills)" !issued
       !acked n)
    true (!issued > 0)

(* --- suite --------------------------------------------------------------------- *)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "server"
    [ ( "protocol",
        [ Alcotest.test_case "codec roundtrip" `Quick test_proto_roundtrip;
          qt qcheck_proto_roundtrip;
          Alcotest.test_case "wire storm: every flip/truncation refused" `Quick
            test_wire_storm;
          Alcotest.test_case "wire storm against a live session" `Quick
            test_wire_storm_live ] );
      ( "end to end",
        [ Alcotest.test_case "concurrent mixed traffic + conservation" `Quick
            test_e2e_mixed;
          Alcotest.test_case "tcp loopback listener" `Quick test_tcp_listener ] );
      ( "serving domains",
        [ Alcotest.test_case "150 start/stop cycles at width 2" `Quick
            test_start_stop_cycles;
          Alcotest.test_case "2 cold readers beside a committer, pack" `Quick
            test_parallel_cold_reads ] );
      ( "group commit",
        [ Alcotest.test_case "n batches fold into one WAL frame" `Quick
            test_group_fold;
          Alcotest.test_case "bounded queue refuses with overload" `Quick
            test_overload;
          Alcotest.test_case "expired deadline refused, never applied" `Quick
            test_deadline;
          qt qcheck_conservation ] );
      ( "idempotency",
        [ Alcotest.test_case "duplicate req_id applied once" `Quick
            test_idempotent_duplicate;
          Alcotest.test_case "duplicate req_id across restart" `Quick
            test_idempotent_across_restart ] );
      ( "degradation",
        [ Alcotest.test_case "failed journal fsync -> read-only, acked prefix kept"
            `Quick test_fsync_failure;
          Alcotest.test_case "tampered commit path -> read-only" `Quick
            test_read_only_degradation;
          Alcotest.test_case "exception on the commit path -> read-only" `Quick
            test_commit_path_exception;
          Alcotest.test_case "session cap refuses politely" `Quick
            test_session_cap;
          Alcotest.test_case "unknown branch / bad req_id" `Quick
            test_unknown_branch ] );
      ( "layout",
        [ Alcotest.test_case "siri_serve reads a sharded layout from disk"
            `Quick test_serve_reads_layout ] );
      ( "crash kill",
        [ Alcotest.test_case "snapshot backend: SIGKILL storm" `Slow
            (test_crash_kill `Snapshot);
          Alcotest.test_case "pack backend: SIGKILL storm" `Slow
            (test_crash_kill `Pack) ] ) ]
