#!/usr/bin/env python3
"""Builds the control-loop benchmark from source and runs one workload.

    python3 perfbench/run.py --workload central_sched --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout of the repository. The first run
configures and builds `perfbench` and the repository's src/ libraries into
`.bench_build/perfbench` (Release); later runs rebuild incrementally. Build
output goes to stderr, so the last line on stdout is the benchmark's JSON
result. The exit code is the benchmark's: non-zero when a correctness check
fails, and 2 when the repository sources are missing or do not build.
"""
import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("central_sched", "fleet_sparse", "fleet_dense")
BUILD_JOBS = "3"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources at {ROOT / 'src'}; nothing to benchmark")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                      "-j", BUILD_JOBS])
        for step in steps:
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if result.returncode != 0:
                fail("build failed: " + " ".join(step))
    return BUILD / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    args = parser.parse_args()

    binary = build()
    out = BUILD / "out"
    out.mkdir(exist_ok=True)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace, "--out", str(out)]
    sys.stdout.flush()
    result = subprocess.run(command)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
