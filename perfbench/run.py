#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload ml_joins --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Build output goes to stderr; the
benchmark's standard output is passed through, so its last line is the
JSON result.  Exits non-zero (without a result) when the checkout does not
hold the program, the build fails, or the run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
OUT_DIR = ".perfbench-out"
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
GALLEY = os.path.join("_build", "default", "bin", "galley_cli.exe")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    for needed in ("dune-project", "lib", os.path.join("bin", "galley_cli.ml")):
        if not os.path.exists(needed):
            print(f"run.py: {needed} not found; run from the root of a "
                  "galley checkout", file=sys.stderr)
            return 2

    # dune from PATH, else through opam's environment.
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    build = subprocess.run(
        dune + ["build", "--root", ".", "./perfbench/bench.exe",
                "./bin/galley_cli.exe"],
        stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--galley", GALLEY, "--out", OUT_DIR]
    # One engine domain, for the benchmark and the serve daemon alike: on a
    # two-CPU host the default pool (one domain per CPU) ran the fixpoint
    # and ml_joins workloads about twice as slowly, and its run-to-run
    # spread was five to eight times wider.  The traced run still measures
    # the pool, as parallel.overhead_s.
    env = dict(os.environ, GALLEY_DOMAINS="1")
    # Own process group, so a timeout also stops the serve daemon.
    proc = subprocess.Popen(cmd, stdout=sys.stdout, stderr=sys.stderr,
                            env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
