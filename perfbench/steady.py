#!/usr/bin/env python3
"""Steadiness check: runs one workload N times and reports each metric's spread.

    python3 perfbench/steady.py --workload exact-sweep --runs 10

Each run uses its own seed (--first-seed, --first-seed + 1, ...) and the
run length from BENCHMARK.json. For every metric it prints the median, the
first and third quartiles (statistics.quantiles(values, n=4)) and the
spread (Q3 - Q1) / median; for end-to-end metrics also that spread as a
share of the metric's bound. A spread under a third of its bound is steady.
--save writes the raw per-run values as JSON, and --compare FILE checks
this set's medians against a saved earlier set under the bounds.
Exits 1 if any run fails, reports an incorrect result, or a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"steady.py: seed {seed}: exit code {p.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="write the per-run values here")
    ap.add_argument("--compare", help="saved set to compare medians with")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    values, ok = {}, True
    for i in range(args.runs):
        seed = args.first_seed + i
        r = run_once(spec, args.workload, seed, seconds, args.trace)
        if not r["correct"] or r["failed"]:
            print(f"seed {seed}: incorrect ({r['failed']} of "
                  f"{r['attempted']} failed)")
            ok = False
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in r["metrics"].items()
            if n in bounds or args.trace), flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'of bound':>9s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        col = ""
        if name in bounds:
            share = spread / bounds[name]["bound"]
            col = f"{share:8.2f}x"
            if name != "setup_s" and spread > bounds[name]["bound"]:
                ok = False
        print(f"{name:28s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.2%} {col:>9s}")

    if args.compare:
        with open(args.compare) as f:
            before = json.load(f)
        print("\nmedian against the saved set (positive = worse):")
        for name, m in bounds.items():
            if name not in values or name not in before:
                continue
            a, b = statistics.median(before[name]), statistics.median(values[name])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "OVER BOUND" if worse > m["bound"] else ""
            ok = ok and not flag
            print(f"{name:28s} {a:12.5g} -> {b:12.5g} {worse:+8.2%} "
                  f"(bound {m['bound']:.0%}) {flag}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
