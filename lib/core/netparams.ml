(* One shared home for the Section 5.6 deployment network constants.

   Both deployment paths — the cost *simulation* (Siri_forkbase.Remote)
   and the real wire-protocol server benchmark (bench `server`) — read
   their link parameters from here, so the two can never silently
   diverge: changing the testbed network changes both figures. *)

type link = {
  rtt_s : float;  (** per-request round-trip latency, seconds *)
  bandwidth_bps : float;  (** payload bytes per second *)
}

(* 0.2 ms RTT, 1 Gb/s — the paper's testbed network (Forkbase servlet). *)
let gigabit_lan = { rtt_s = 0.0002; bandwidth_bps = 125_000_000.0 }

(* The Noms HTTP setup: 1 ms per request, same bandwidth. *)
let http_overhead = { rtt_s = 0.001; bandwidth_bps = 125_000_000.0 }
