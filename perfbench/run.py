#!/usr/bin/env python3
"""siri-serve end-to-end benchmark.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  Builds siri_serve and the
benchmark driver (perfbench/perfbench.ml) from source with dune, runs the
driver in a scratch directory under .perfbench_run/, and passes its output
through: a human-readable report, then one JSON result object as the last
line.  Exits non-zero, without a result, when the checkout cannot be built
or the run fails; exits 1 after printing {"correct": false, ...} when an
answer was wrong.  Workloads: ingest, lookup-cold, prove-scan.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

RUN_DIR = ".perfbench_run"
TIMEOUT_S = 170


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    targets = ["bin/siri_serve.exe", "perfbench/perfbench.exe"]
    done = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release"] + targets,
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def stop_group(pgid):
    """Kill whatever is left of the driver's process group and wait until
    the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["ingest", "lookup-cold", "prove-scan"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile("bin/siri_serve.ml")):
        print("perfbench: run from the root of a siri source checkout",
              file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2

    work = os.path.join(RUN_DIR, str(os.getpid()))
    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [os.path.join("_build", "default", "perfbench", "perfbench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve", os.path.join("_build", "default", "bin", "siri_serve.exe"),
           "--work", work, "--nproc", str(len(os.sched_getaffinity(0)))]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        rc = 3
    finally:
        stop_group(proc.pid)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(RUN_DIR)
        except OSError:
            pass
    return rc


if __name__ == "__main__":
    sys.exit(main())
