#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload datapath_waxman --seed 2019 \
        --seconds 30 --trace 0

Builds perfbench/ (the sdmbox libraries from src/ plus the benchmark binary)
into .bench_build/ with CMake in Release mode, runs one workload (or, with
--workload all, each of the three in turn) in its own process and prints
its report. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; with --trace 0 it carries the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
Exits non-zero, without a result line, when the sources are missing or the
build or run fails, and non-zero after the result line when a correctness
check failed. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("datapath_waxman", "chaos_verify_waxman", "replan_waxman")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(3)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no sdmbox sources under %s/src; run from a full checkout" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if done.returncode != 0:
            fail("build step %s exited %d" % (cmd[:2], done.returncode))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload, args):
    """Run one workload in its own process; returns its exit code."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(BUILD_DIR, "spans-%s-%d.json" % (workload, args.seed))]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        fail("perfbench exited %d without a result line" % done.returncode)

    declared = declared_metrics(args.trace)
    missing = declared - set(result["metrics"])
    if missing:
        print("\n".join(lines[:-1]))
        fail("result lacks declared metrics: %s" % ", ".join(sorted(missing)))
    result["metrics"] = {k: v for k, v in result["metrics"].items() if k in declared}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return done.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all three in turn (one process each)")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run_workload(w, args) for w in workloads]
    sys.exit(max(codes))


if __name__ == "__main__":
    main()
