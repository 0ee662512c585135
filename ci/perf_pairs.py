#!/usr/bin/env python3
"""Paired timing of two checkouts on one perfbench workload.

    python3 ci/perf_pairs.py PARENT CHANGE --workload datapath_waxman \
        --seed 2019 --seconds 30 --pairs 10

PARENT and CHANGE are checkouts whose perfbench binary is already built
(python3 perfbench/run.py ... builds .bench_build/perfbench). Each pair runs
both binaries once, one after the other; the side that goes first alternates
from pair to pair, so slow drift of the host's speed hits both sides alike.

For every end-to-end metric that CHANGE's BENCHMARK.json declares, it prints
each pair's CHANGE/PARENT ratio, how many pairs CHANGE won, each side's
median and quartiles, and whether the gap between the medians exceeds the
parent's interquartile range (IQR).

Exits 1 unless every run reported "correct": true with failed == 0, and 2 on
a usage error or a missing binary. Timings never affect the exit code.
"""

import argparse
import json
import os
import subprocess
import sys

BINARY = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("datapath_waxman", "chaos_verify_waxman", "replan_waxman")


def quantile(values, q):
    """Linear-interpolated quantile q in [0, 1] of a non-empty list."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def end_to_end_metrics(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return [(m["name"], m["better"]) for m in json.load(f)["end_to_end"]]


def run_once(checkout, args):
    """One perfbench run of `checkout`; returns its result object."""
    cmd = [os.path.join(checkout, BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    timeout = max(170.0, 4 * args.seconds + 60)
    try:
        done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("perf_pairs: %s did not finish within %.0f s" % (checkout, timeout))
    try:
        return json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        sys.stderr.write(done.stdout + done.stderr)
        sys.exit("perf_pairs: %s exited %d without a result line" % (checkout, done.returncode))


def fmt(x):
    return "%.4g" % x


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout timed as the baseline")
    ap.add_argument("change", help="checkout timed against it")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--pairs", required=True, type=int)
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs must be >= 1 and --seconds > 0")

    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for name, checkout in sides.items():
        if not os.access(os.path.join(checkout, BINARY), os.X_OK):
            print("perf_pairs: no %s in %s checkout %s; build it with python3 perfbench/run.py"
                  % (BINARY, name, checkout), file=sys.stderr)
            sys.exit(2)
    metrics = end_to_end_metrics(sides["change"])

    print("perf_pairs: %s seed %d, %d pair(s) of %g s runs" %
          (args.workload, args.seed, args.pairs, args.seconds))
    for name, checkout in sides.items():
        print("  %s: %s" % (name, checkout))

    results = {"parent": [], "change": []}
    all_correct = True
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in order:
            r = run_once(sides[name], args)
            if not r.get("correct") or r.get("failed", 1) != 0:
                all_correct = False
                print("  pair %d: %s run INCORRECT (correct=%s, failed=%s)" %
                      (i + 1, name, r.get("correct"), r.get("failed")))
            results[name].append({m: r["metrics"][m]["value"] for m, _ in metrics})
        cells = ["%s %s -> %s (%.3f)" % (m, fmt(results["parent"][i][m]),
                                         fmt(results["change"][i][m]),
                                         results["change"][i][m] / results["parent"][i][m])
                 for m, _ in metrics]
        print("  pair %d (%s first): %s" % (i + 1, order[0], "  ".join(cells)), flush=True)

    print("%-12s %-6s %-30s %-30s %-6s %-6s %s" %
          ("metric", "better", "parent median [q1, q3]", "change median [q1, q3]", "ratio",
           "wins", "gap vs parent IQR"))
    for m, better in metrics:
        stats = {}
        for name in results:
            v = [r[m] for r in results[name]]
            stats[name] = (quantile(v, 0.5), quantile(v, 0.25), quantile(v, 0.75))
        sign = -1 if better == "lower" else 1
        wins = sum(1 for p, c in zip(results["parent"], results["change"])
                   if sign * (c[m] - p[m]) > 0)
        (pm, pq1, pq3), (cm, _, _) = stats["parent"], stats["change"]
        gap = abs(cm - pm)
        verdict = "exceeds" if gap > pq3 - pq1 else "within"
        if cm == pm:
            direction = "equal medians"
        else:
            direction = "%s by %s" % ("better" if sign * (cm - pm) > 0 else "worse", fmt(gap))
        print("%-12s %-6s %-30s %-30s %-6.3f %-6s %s (%s, IQR %s)" %
              (m, better, "%s [%s, %s]" % tuple(fmt(x) for x in stats["parent"]),
               "%s [%s, %s]" % tuple(fmt(x) for x in stats["change"]), cm / pm,
               "%d/%d" % (wins, args.pairs), verdict, direction, fmt(pq3 - pq1)))

    if not all_correct:
        print("perf_pairs: some runs failed their correctness checks", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
