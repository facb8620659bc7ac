(** Shared deployment network constants (Section 5.6).

    The single source of truth for the simulated testbed links: the
    {!Siri_forkbase.Remote} cost simulation and the real server
    benchmark's configuration both read these values, so the simulated
    and measured deployment paths cannot silently diverge. *)

type link = {
  rtt_s : float;  (** per-request round-trip latency, seconds *)
  bandwidth_bps : float;  (** payload bytes per second *)
}

val gigabit_lan : link
(** 0.2 ms RTT, 1 Gb/s — the paper's testbed network. *)

val http_overhead : link
(** The Noms HTTP setup: 1 ms per request, same bandwidth. *)
