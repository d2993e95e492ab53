#!/usr/bin/env python3
"""Steadiness and determinism check for the control-loop benchmark.

    python3 perfbench/steady.py [--workloads central_sched,...] [--seed-base 100]

For each workload it runs `run.py --trace 0` in two sets of 10 runs of
BENCHMARK.json's run_seconds, each run with its own seed (set A:
seed-base+1.., set B: seed-base+101..). Per (workload, end-to-end metric)
it prints each set's median and quartiles (statistics.quantiles, n=4), the
spread (Q3-Q1)/median, and the drift of set B's median from set A's in the
metric's bad direction, against the bound recorded in BENCHMARK.json. Below
each host-speed-normalized metric (CPU times, ttis_per_s, setup_s) it prints
the same figures for the unnormalized value the run reports on stderr; those
have no bound.

It then runs `--trace 1` twice per workload at one fixed seed and requires
`attempted`, `failed`, `process.ops_ok_ratio` and every count metric (units
count and B) to repeat exactly.

Exit code 1 when a spread or drift exceeds its bound, a count differs, a
run fails its correctness checks, or a run fails outright.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
UNNORMALIZED = "unnormalized: "


def run(workload, seed, seconds, trace):
    """The run's JSON result, with its unnormalized figures under "unnormalized"."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        return None
    out = json.loads(lines[-1])
    out["unnormalized"] = {}
    for line in result.stderr.splitlines():
        if line.startswith(UNNORMALIZED):
            out["unnormalized"] = json.loads(line[len(UNNORMALIZED):])
    return out


def summary(values):
    """(q1, median, q3, spread) of `values`."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seed-base", type=int, default=100)
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    metrics = spec["end_to_end"]
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for offset in (1, 101):
            results = []
            for i in range(RUNS):
                seed = args.seed_base + offset + i
                result = run(workload, seed, seconds, 0)
                if result is None or not result["correct"]:
                    print(f"{workload} seed {seed}: run failed or incorrect", flush=True)
                    ok = False
                    continue
                results.append(result)
            sets.append(results)
        print(f"\n{workload}: {RUNS} runs of {seconds} s per set, seeds {args.seed_base + 1}.. "
              f"and {args.seed_base + 101}..")
        print(f"  {'metric':18} {'set':3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} "
              f"{'drift':>8} {'bound':>6}")
        for m in metrics:
            name, bound, lower_better = m["name"], m["bound"], m["better"] == "lower"
            medians = []
            for label, results in zip("AB", sets):
                if len(results) < 2:
                    print(f"  {name:18} {label:3} too few runs")
                    ok = False
                    medians.append(None)
                    continue
                q1, med, q3, spread = summary([r["metrics"][name]["value"] for r in results])
                medians.append(med)
                flag = ""
                if spread > bound:
                    flag = "  SPREAD > bound"
                    ok = False
                elif spread > bound / 3:
                    flag = "  spread > bound/3"
                drift = ""
                if label == "B" and medians[0]:
                    change = (med - medians[0]) / medians[0]
                    worse = change if lower_better else -change
                    drift = f"{worse:+.4f}"
                    if worse > bound:
                        flag += "  DRIFT > bound"
                        ok = False
                print(f"  {name:18} {label:3} {q1:12.6g} {med:12.6g} {q3:12.6g} {spread:8.4f} "
                      f"{drift:>8} {bound:6.3g}{flag}", flush=True)
                raw = [r["unnormalized"][name]["value"] for r in results
                       if name in r["unnormalized"]]
                if len(raw) >= 2:
                    q1, med, q3, spread = summary(raw)
                    print(f"  {'  unnormalized':18} {label:3} {q1:12.6g} {med:12.6g} {q3:12.6g} "
                          f"{spread:8.4f}", flush=True)
        factors = [r["unnormalized"]["speed_factor"]["value"] for results in sets
                   for r in results if "speed_factor" in r["unnormalized"]]
        if factors:
            print(f"  host speed factor: min {min(factors):.3f} median "
                  f"{statistics.median(factors):.3f} max {max(factors):.3f}", flush=True)

        seed = args.seed_base + 1
        traced = [run(workload, seed, seconds, 1) for _ in range(2)]
        if any(t is None or not t["correct"] for t in traced):
            print(f"  determinism: traced run failed at seed {seed}")
            ok = False
            continue
        exact = {k: v["value"] for k, v in traced[0]["metrics"].items()
                 if v["unit"] in ("count", "B") or k == "process.ops_ok_ratio"}
        exact["attempted"] = traced[0]["attempted"]
        exact["failed"] = traced[0]["failed"]
        again = {k: v["value"] for k, v in traced[1]["metrics"].items()}
        again["attempted"] = traced[1]["attempted"]
        again["failed"] = traced[1]["failed"]
        differ = [k for k, v in exact.items() if again.get(k) != v]
        overhead = traced[0]["metrics"]["trace.overhead_ratio"]["value"]
        print(f"  determinism at seed {seed}: {len(exact)} exact metrics, "
              f"{len(differ)} differ{': ' + ', '.join(differ) if differ else ''}; "
              f"tracing overhead {overhead:.3f}x", flush=True)
        if differ:
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
