(* Crash children for the SIGKILL harnesses.  A harness re-runs its own
   test binary as [<exe> --crash-child <args>] and kills it at a seeded
   instant.  The child is a fresh process, never a fork: OCaml 5 refuses
   [Unix.fork] once the runtime has spawned a domain, and the parallel
   pool spawns one on any multi-core host. *)

let flag = "--crash-child"

(* Called first thing in the child: [spawn] waits for this line. *)
let announce () = print_endline "up"

(* Start the child and return its pid once it has announced itself, so a
   seeded kill delay measures from the same point a fork would have
   started it. *)
let spawn args =
  let exe = Sys.executable_name in
  let up_r, up_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: flag :: args))
      Unix.stdin up_w Unix.stderr
  in
  Unix.close up_w;
  let ic = Unix.in_channel_of_descr up_r in
  ignore (In_channel.input_line ic : string option);
  close_in ic;
  pid
