#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload warehouse_read --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

The first call configures and builds the benchmark (and the aqv library it
links, compiled from src/) under $CARGO_TARGET_DIR, or .bench_build when
that is unset; later calls rebuild only what changed. The benchmark binary
then runs one workload per process, so peak memory is per workload. The
last line of standard output is the run's JSON result; with --workload all
it is one object keyed by workload. The exit code is non-zero when the
build fails, a correctness check fails, or a statement fails.

Extra flags (--scale tiny, --out-dir DIR) are passed through to
the benchmark binary; see perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["warehouse_read", "dml_mixed", "durable_ingest"]
RUN_TIMEOUT_S = 170  # subprocess.run kills the benchmark when it expires


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "query_service.h")):
        log("the aqv sources (src/) are not in " + ROOT + "; run from the repository root")
        sys.exit(2)
    out = build_dir()
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "--target", "perfbench", "-j", "4"],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the run's output.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(out, "perfbench")


def git_sha():
    # The ceiling keeps git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def run_one(binary, workload, args, passthrough):
    """Runs one workload; returns its JSON result line, or None on failure."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(ROOT, "perfbench-out"),
           "--git-sha", git_sha()] + passthrough
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return None
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write("".join(line + "\n" for line in lines))
        log("%s failed with exit code %d" % (workload, done.returncode))
        return None
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    return lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, passthrough = parser.parse_known_args()

    binary = build()
    if args.workload != "all":
        result = run_one(binary, args.workload, args, passthrough)
        if result is None:
            return 1
        print(result)
        return 0

    results = {}
    for workload in WORKLOADS:
        print("## " + workload, flush=True)
        result = run_one(binary, workload, args, passthrough)
        if result is not None:
            results[workload] = json.loads(result)
    if len(results) != len(WORKLOADS):
        return 1
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
