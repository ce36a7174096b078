#!/usr/bin/env python3
# Copyright 2026 The deepsurf Authors.
"""Builds and runs the end-to-end benchmark (bench_e2e/e2e_bench.cc).

Usage, from the root of a source checkout:

    python3 bench_e2e/run.py --workload surface|local_serve|remote_churn \
        --seed N --seconds S --trace 0|1

The first run configures and builds e2e_bench and the deepsurf library
(Release) into $CARGO_TARGET_DIR, or .bench_build when it is unset; later
runs rebuild only what changed. --trace 0 prints the end-to-end metrics.
--trace 1 runs the workload twice on the same seed, untraced and then
traced, and prints the traced run's per-layer metrics plus
obs.trace_overhead_frac: (untraced - traced) / untraced of the workload's
headline rate. The traced run's spans go to <build dir>/spans/.

The last line of standard output is the result JSON. A failed build, a
failed output check, a crash or a timeout exits non-zero without one.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("surface", "local_serve", "remote_churn")
RUN_BUDGET_S = 170.0  # every run must end within 180 s once built

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return os.path.join(path, "bench_e2e")


def build(out):
    """Configures (once) and builds e2e_bench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "engine.h")):
        fail("no deepsurf sources under " + os.path.join(ROOT, "src"))
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", out, "-j", "2"])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-4000:])
                fail("build step failed: " + " ".join(cmd))
    binary = os.path.join(out, "e2e_bench")
    if not os.access(binary, os.X_OK):
        fail("build produced no binary at " + binary)
    return binary


def run_bench(binary, args, trace, spans, deadline):
    """Runs e2e_bench once; returns (stdout lines, result dict)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("no time left for the %s run" % ("traced" if trace else
                                               "untraced"))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("e2e_bench exceeded the run budget")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail("e2e_bench exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        fail("e2e_bench printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"} or \
            result["correct"] is not True:
        fail("malformed or incorrect result: " + lines[-1])
    return lines, result


def headline(lines):
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[0] == "headline":
            return float(parts[2])
    fail("e2e_bench printed no headline rate")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    binary = build(out)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not args.trace:
        lines, _ = run_bench(binary, args, 0, None, deadline)
        print("\n".join(lines))
        return

    untraced_lines, untraced = run_bench(binary, args, 0, None, deadline)
    print("\n".join("untraced: " + line for line in untraced_lines[:-1]))
    spans_dir = os.path.join(out, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, "%s-%d.jsonl" % (args.workload, args.seed))
    lines, traced = run_bench(binary, args, 1, spans, deadline)
    print("\n".join(lines[:-1]))
    base = headline(untraced_lines)
    overhead = (base - headline(lines)) / base if base else 0.0
    traced["metrics"]["obs.trace_overhead_frac"] = {"value": overhead,
                                                    "unit": "frac"}
    traced["attempted"] += untraced["attempted"]
    traced["failed"] += untraced["failed"]
    print(json.dumps(traced))


if __name__ == "__main__":
    main()
