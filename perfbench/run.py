#!/usr/bin/env python3
"""Builds ogate from source and runs one benchmark workload.

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 20 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the current directory; the last stdout line is the
result object {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("exact-sweep", "sampled-sweep", "served-mix")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the benchmark and ogate-serve."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "ogate-perfbench", "ogate-serve"])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                fail(f"'{' '.join(cmd)}' failed; see {log_path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(out, "perfbench")
    build(build_dir)
    # Relative, so the server's socket path stays short.
    work_dir = os.path.join(out, "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "ogate-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--refs", os.path.join(HERE, "refs"),
           "--serve", os.path.join(build_dir, "ogate", "tools", "ogate-serve"),
           "--work-dir", work_dir]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
