(* siri_serve — serve a durable SIRI engine to multiple clients.

     siri_serve DIR --unix /tmp/siri.sock
     siri_serve DIR --backend pack --tcp 0      # port printed on READY
     siri_serve DIR --unix s.sock --tcp 7421    # both listeners

   Opens (recovering) the durable directory — flat or sharded, on the
   backend it holds; --backend and --shards only shape a directory being
   created — binds the listeners, prints
   one "READY <addr>" line per listener on stdout (the crash harness and
   scripts wait for these), then serves until SIGTERM/SIGINT, which shuts
   down gracefully: queued commits drain, sessions close, journal fsyncs.
   SIGKILL at any point is the crash the recovery path is built for.

   Exit codes follow the durability convention: 0 clean service, 1 the
   journal had a torn tail clamped on open (served anyway), 2 the
   directory is unrecoverable or a listener could not bind. *)

open Cmdliner
module Store = Siri_store.Store
module Telemetry = Siri_telemetry.Telemetry
module Wal = Siri_wal.Wal
module Partition = Siri_shard.Partition
module Dir = Siri_shard.Dir
module Server = Siri_server.Server

let addr_to_string : Server.addr -> string = function
  | `Unix p -> "unix:" ^ p
  | `Tcp p -> "tcp:" ^ string_of_int p

let serve dir kind backend shards partition unix_path tcp_port sync group_max
    max_queue session_max =
  let listen =
    (match unix_path with Some p -> [ `Unix p ] | None -> [])
    @ match tcp_port with Some p -> [ `Tcp p ] | None -> []
  in
  if listen = [] then begin
    prerr_endline "siri_serve: need at least one of --unix PATH / --tcp PORT";
    2
  end
  else begin
    (* The serving store(s) keep the decoded-node and proof caches off:
       their LRUs are mutable and sessions read concurrently.  The
       telemetry sink is thread-safe and uses a wall clock so latency
       histograms are in seconds; with shards it is shared so server.*
       and per-shard counters aggregate in one place. *)
    let tsink = Telemetry.create ~clock:Unix.gettimeofday () in
    let fresh_index () =
      let store = Store.create ~cache_bytes:0 ~proof_cache_bytes:0 () in
      Store.set_sink store tsink;
      Kind.make kind store
    in
    let config =
      { Server.default_config with group_max; max_queue; session_max }
    in
    (* A sharded directory runs one systhread per shard inside the single
       writer: journal fsyncs overlap, index builds stay on this domain
       (the store discipline the lock-free snapshot reads rely on). *)
    let spec =
      Option.map (fun n -> Partition.make partition ~shards:n) shards
    in
    match
      Dir.open_ ~sync ?backend ~runner:`Threads ?spec ~dir
        ~empty_index:fresh_index ()
    with
    | exception Invalid_argument msg ->
        Printf.eprintf "siri_serve: %s\n" msg;
        2
    | Error e ->
        Format.eprintf "siri_serve: %a@." Wal.pp_error e;
        2
    | Ok d -> (
        match Server.start ~config ~dir:d ~listen () with
        | exception Unix.Unix_error (err, fn, arg) ->
            Printf.eprintf "siri_serve: %s %s: %s\n" fn arg
              (Unix.error_message err);
            Dir.close d;
            2
        | server ->
            List.iter
              (fun a -> Printf.printf "READY %s\n" (addr_to_string a))
              (Server.listening server);
            flush stdout;
            let stop_flag = Atomic.make false in
            let handler =
              Sys.Signal_handle (fun _ -> Atomic.set stop_flag true)
            in
            Sys.set_signal Sys.sigterm handler;
            Sys.set_signal Sys.sigint handler;
            (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
             with Invalid_argument _ -> ());
            while not (Atomic.get stop_flag) do
              Thread.delay 0.1
            done;
            Server.stop server;
            if Dir.clamped d then 1 else 0)
  end

let cmd =
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR") in
  let backend =
    Arg.(
      value
      & opt (some (enum [ ("snapshot", `Snapshot); ("pack", `Pack) ])) None
      & info [ "backend" ] ~docv:"BACKEND"
          ~doc:
            "Checkpoint backend of a directory being created: \
             $(b,snapshot) (the default) or $(b,pack).  An existing \
             directory is opened with the backend it holds; a \
             contradicting value is refused.")
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Create a sharded keyspace: partition across $(docv) \
             independent journaled stores committed concurrently under one \
             composite Merkle root.  An existing directory is served with \
             the layout it holds (its SHARDS manifest); a contradicting \
             count is refused.")
  in
  let partition =
    Arg.(
      value
      & opt
          (enum [ ("hash", Partition.Hash); ("range", Partition.Range) ])
          Partition.Hash
      & info [ "partition" ] ~docv:"SCHEME"
          ~doc:
            "Partition scheme of a directory created with --shards: \
             $(b,hash) (default) or $(b,range).")
  in
  let unix_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "unix" ] ~docv:"PATH" ~doc:"Listen on a Unix-domain socket.")
  in
  let tcp_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT"
          ~doc:"Listen on TCP loopback; port 0 picks a free port (printed \
                on the READY line).")
  in
  let sync =
    Arg.(
      value & opt bool true
      & info [ "sync" ] ~docv:"BOOL"
          ~doc:"fsync the journal on every group commit (default true).")
  in
  let group_max =
    Arg.(
      value & opt int Server.default_config.Server.group_max
      & info [ "group-max" ] ~docv:"N"
          ~doc:"Client write batches folded into one group commit.")
  in
  let max_queue =
    Arg.(
      value & opt int Server.default_config.Server.max_queue
      & info [ "max-queue" ] ~docv:"N"
          ~doc:"Pending write batches before refusing with overload.")
  in
  let session_max =
    Arg.(
      value & opt int Server.default_config.Server.session_max
      & info [ "session-max" ] ~docv:"N" ~doc:"Concurrent sessions.")
  in
  Cmd.v
    (Cmd.info "siri_serve" ~version:"1.0.0"
       ~doc:
         "Serve a durable SIRI engine over checksummed framed sockets: \
          snapshot-isolated reads, single-writer group commit, graceful \
          shutdown on SIGTERM.")
    Term.(
      const serve $ dir $ Kind.arg $ backend $ shards $ partition $ unix_path
      $ tcp_port $ sync $ group_max $ max_queue $ session_max)

let () = exit (Cmd.eval' cmd)
