#!/usr/bin/env python3
"""Build the kivati end-to-end benchmark from source and run one workload.

    python3 perfbench/run.py --workload grid-c2 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test

Run from the repository root. The benchmark and the kivati libraries are
built (Release) into .bench_build/; results and spans go to
.bench_build/results/. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["grid-c2", "grid-wide", "bughunt", "compare"]


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: kivati sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", target],
    ):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true", help="build and run the probe test")
    args = parser.parse_args()
    if args.test:
        return subprocess.run([build("probes_test")]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    binary = build("perfbench")
    return subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", os.path.join(BUILD, "results")],
        cwd=ROOT,
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
