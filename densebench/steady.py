#!/usr/bin/env python3
"""Steadiness check: run every workload in BENCHMARK.json ten times, under
seeds 1-10, for BENCHMARK.json's run_seconds, and print every end-to-end
metric's median, quartiles and spread.

    python3 densebench/steady.py

The workloads take turns, one run each per seed, in BENCHMARK.json's order
on odd seeds and the reverse on even ones, so a slow spell of the host is
shared among them rather than landing on one workload's runs.

The spread is the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median; the bounds
in BENCHMARK.json are set from it. Prints each run's metrics to standard
error as it ends, then a Markdown table per workload, and exits non-zero
if a run fails, reports an incorrect result, a spread other than
setup_s's reaches its metric's bound, or the share of failed ops differs
between runs. setup_s is one cold set-up per run, so its spread is the
host's speed at that moment; it is printed but not gated, and a
comparison reads its median.
"""

import fractions
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)


def run_once(workload, seed, seconds):
    cmd = ["bash", "densebench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, wall


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    values = {w: {name: [] for name in bounds} for w in workloads}
    shares = {w: set() for w in workloads}
    walls = {w: [] for w in workloads}
    ok = True
    for seed in SEEDS:
        for workload in workloads if seed % 2 else reversed(workloads):
            result, wall = run_once(workload, seed, seconds)
            walls[workload].append(wall)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result", file=sys.stderr)
                ok = False
            shares[workload].add(fractions.Fraction(result["failed"], result["attempted"]))
            for name in bounds:
                values[workload][name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s, " + ", ".join(
                f"{name} {values[workload][name][-1]:.6g}" for name in bounds), file=sys.stderr)
    for workload in workloads:
        print(f"\n### {workload}: seeds {SEEDS.start}..{SEEDS.stop - 1}, --seconds {seconds}, "
              f"{statistics.median(walls[workload]):.1f} s wall per run (median)\n")
        print("| metric | median | q1 | q3 | spread | bound | spread / bound |")
        print("|---|---|---|---|---|---|---|")
        for name, xs in values[workload].items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            ratio = spread / bounds[name]
            print(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | {bounds[name]} | {ratio:.2f} |")
            if spread >= bounds[name] and name != "setup_s":
                print(f"{workload}: {name} spread {spread:.4f} reaches its bound", file=sys.stderr)
                ok = False
        print(f"\nfailed share of attempted ops: {', '.join(str(s) for s in sorted(shares[workload]))}")
        if len(shares[workload]) != 1:
            ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
