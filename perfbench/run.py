#!/usr/bin/env python3
"""End-to-end benchmark of the reconfigurable register service.

Run from the root of an ssreconf checkout:

    python3 perfbench/run.py --workload steady --seed 1 --seconds 5 --trace 0

Builds perfbench/bench.exe with dune (release profile, build directory
.bench_build, shared cache off), runs it, checks the shape of its result
and prints its output. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. bench.ml documents
the workloads and the metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("steady", "reconfig", "churn", "wide")
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 840
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, env=None):
    """Run cmd in a process group of its own; return (exit code, stdout).

    On timeout the whole group is killed and reaped, so no process
    outlives the benchmark."""
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, start_new_session=True)
    except OSError as e:
        die(f"cannot run {cmd[0]}: {e}")
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"{cmd[0]} did not finish within {timeout} s")
    return proc.returncode, out.decode()


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("no ssreconf sources in the working directory; run from a checkout root")
    # keep every build artefact, the dune cache included, inside the checkout
    env = dict(
        os.environ,
        DUNE_CACHE="disabled",
        XDG_CACHE_HOME=os.path.abspath(os.path.join(BUILD_DIR, "cache")),
    )
    cmd = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", "--display", "quiet", "./perfbench/bench.exe",
    ]
    code, out = run(cmd, BUILD_TIMEOUT_S, env=env)
    sys.stderr.write(out)
    if code != 0:
        die(f"build failed (dune exit code {code})")


def main():
    ap = argparse.ArgumentParser(description="End-to-end register benchmark.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 1 <= args.seconds <= 120:
        die("--seconds must be between 1 and 120")
    build()
    code, out = run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        args.seconds + 60,
    )
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if code != 0 or not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(out)
        die(f"bench.exe exited with code {code} without a valid result")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
