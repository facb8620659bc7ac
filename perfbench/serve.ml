(* The real siri_serve binary as a child process.  Every child is
   registered until it has been reaped, and an [at_exit] hook kills and
   reaps whatever is left, so no failure path leaves a server behind. *)

type t = { pid : int; out : in_channel; ready_s : float }

let live : int list ref = ref []

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live

let () = at_exit kill_all

let status_string = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n

let backend_flag = function `Pack -> "pack" | `Snapshot -> "snapshot"

(* The flags the benchmark passes; everything else is siri_serve's
   default (POS-Tree index, sync on, Server.default_config queue sizes). *)
let flags ~backend ~sock =
  [ "--index"; "pos"; "--backend"; backend_flag backend; "--sync"; "true";
    "--unix"; sock ]

(* Spawn on [dir] and wait for the READY line; [ready_s] is spawn to
   READY, i.e. process start plus recovery/reopen of the directory. *)
let spawn ~exe ~dir ~backend ~sock =
  let argv = Array.of_list ((exe :: dir :: flags ~backend ~sock)) in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let t0 = Unix.gettimeofday () in
  let pid = Unix.create_process exe argv Unix.stdin out_w Unix.stderr in
  live := pid :: !live;
  Unix.close out_w;
  let out = Unix.in_channel_of_descr out_r in
  match input_line out with
  | line when String.length line >= 5 && String.sub line 0 5 = "READY" ->
      { pid; out; ready_s = Unix.gettimeofday () -. t0 }
  | _ | (exception End_of_file) ->
      close_in_noerr out;
      failwith ("siri_serve did not print READY on " ^ dir)

(* Graceful stop (SIGTERM drains and fsyncs), escalating to SIGKILL if
   the server has not exited within 20 s.  Returns the exit status. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        let _, st = Unix.waitpid [] t.pid in
        st
    | _, st -> st
    | exception Unix.Unix_error _ -> Unix.WEXITED 0
  in
  let st = wait () in
  live := List.filter (( <> ) t.pid) !live;
  close_in_noerr t.out;
  st
