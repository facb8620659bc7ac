#!/usr/bin/env python3
"""Peak-RSS trace of siri_serve under the perfbench ingest workload.

    python3 bench/rss.py            # or: make rss

Run from the root of a source checkout.  Starts

    python3 perfbench/run.py --workload ingest --seed 13 --seconds 60

and, once a second while it runs, reads the RSS of every siri_serve.exe
process with ps and keeps the largest.  Prints one line per sample
(seconds since start, pid, RSS in MB), then the least-squares slope in
MB/s over the load window: the samples of the longest-lived server (the
one under load; the set-up spawns live for a fraction of a second)
between WARMUP_S and the end of the run's seconds.  The samples after
the window cover the final checks and shutdown, whose Pack.sync_index
serializes the whole offset index: that spike is not the steady state.
"""

import os
import subprocess
import sys
import tempfile
import time

SECONDS = 60
WARMUP_S = 5


def largest_serve_rss():
    out = subprocess.run(["ps", "-C", "siri_serve.exe", "-o", "pid=,rss="],
                         capture_output=True, text=True).stdout
    best = None
    for line in out.split("\n"):
        fields = line.split()
        if len(fields) == 2:
            pid, kb = int(fields[0]), int(fields[1])
            if best is None or kb > best[1]:
                best = (pid, kb)
    return best


def slope(points):
    n = len(points)
    mx = sum(x for x, _ in points) / n
    my = sum(y for _, y in points) / n
    var = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / var if var else 0.0


def main():
    if not os.path.isfile("perfbench/run.py"):
        print("rss: run from the root of a siri source checkout", file=sys.stderr)
        return 2
    report = tempfile.TemporaryFile(mode="w+")
    run = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "ingest",
         "--seed", "13", "--seconds", str(SECONDS)],
        stdout=report, text=True)
    t0 = time.monotonic()
    samples = []
    while run.poll() is None:
        s = largest_serve_rss()
        if s is not None:
            samples.append((time.monotonic() - t0, s[0], s[1] / 1024.0))
        time.sleep(1.0)
    report.seek(0)
    result = report.read().strip().split("\n")[-1]
    print("t_s\tpid\trss_mb")
    for t, pid, mb in samples:
        print(f"{t:.0f}\t{pid}\t{mb:.1f}")
    print("perfbench:", result)
    if not samples:
        print("rss: no siri_serve.exe sample", file=sys.stderr)
        return 1
    pids = [pid for _, pid, _ in samples]
    server = max(set(pids), key=pids.count)
    mine = [(t, mb) for t, pid, mb in samples if pid == server]
    start = mine[0][0]
    window = [(t, mb) for t, mb in mine if WARMUP_S <= t - start <= SECONDS]
    if len(window) < 2:
        print("rss: load window has fewer than two samples", file=sys.stderr)
        return 1
    print(f"load window: pid {server}, {len(window)} samples, "
          f"{window[0][1]:.1f} -> {window[-1][1]:.1f} MB, "
          f"peak {max(mb for _, mb in mine):.1f} MB")
    print(f"slope: {slope(window):.2f} MB/s")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
