(* The host-speed probe.  This host shares its caches and memory with other
   tenants, and its speed drifts with their load: on a 2-vCPU Xeon VM, over
   90 s cut into 4 s blocks, an in-process POS-Tree commit loop spread 30%
   (IQR / median) and a register-only integer loop 4%, while the commit
   loop's rate divided by a memory-bound loop's spread 7%.  The drift is in
   the memory system, and a memory-bound task tracks it.

   The probe is such a task: a fixed amount of allocation, string hashing
   (stdlib Digest), hash-table inserts and a list sort, in the benchmark's
   own code only, so no change to the program under test moves it.  The
   load generator pauses every [slice_s] and times it; each operation's
   latency is then divided by the probe time around it (see Load), which
   gives a latency in probe units that the host's drift largely cancels
   out of. *)

let task () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 2047 do
    let k = Printf.sprintf "k%08d" (i * 7919 mod 100_000) in
    Hashtbl.replace h k (Digest.string (k ^ String.make 64 'x'))
  done;
  let l = List.init 20_000 (fun i -> (i * 7919) mod 100_003) in
  ignore (Sys.opaque_identity (List.sort compare l, h))

let reps = 3

(* Seconds between probes while load runs.  At 0.25 s the pauses
   themselves raised the ingest p99 by a third. *)
let slice_s = 0.5

(* Median seconds of one task over [reps] back-to-back runs, so a single
   preemption does not move the reading. *)
let measure () =
  let s = Stat.create () in
  for _ = 1 to reps do
    let t0 = Host.now () in
    task ();
    Stat.add s (Host.now () -. t0)
  done;
  Stat.median s
