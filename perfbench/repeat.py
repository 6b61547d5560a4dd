#!/usr/bin/env python3
"""Repeatability check: runs every workload N times, one seed per run.

Run from the root of a parsplu checkout:

    python3 perfbench/repeat.py [--runs 10]

Run i (seeds 1..N) runs every workload of BENCHMARK.json once, for its
run_seconds, at full scale; the workloads take turns, so each workload's
runs are spread over the same stretch of time. For each workload and
end-to-end metric it then prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the quartile spread
(Q3 - Q1) / median, and flags a metric whose spread exceeds its bound in
BENCHMARK.json ("!" when over the bound, "~" when over a third of it).
It also prints each workload's failed / attempted share. Exit code 1 when
a run fails, a run reports incorrect output, or any spread exceeds its
bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    runs_per_workload = p.parse_args().runs
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    results = {w: [] for w in workloads}
    for seed in range(1, runs_per_workload + 1):
        for w in workloads:
            try:
                r = run_once(w, seed, seconds)
            except RuntimeError as e:
                print(f"perfbench: {e}", file=sys.stderr)
                sys.exit(1)
            results[w].append(r)
            print(f"  {w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                file=sys.stderr, flush=True)

    bad = False
    for w, runs in results.items():
        att = sum(r["attempted"] for r in runs)
        fail = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        bad |= not correct
        print(f"\n{w}: {len(runs)} runs x {seconds} s, seeds 1..{len(runs)}, "
              f"failed {fail}/{att}, correct {correct}")
        print(f"  {'metric':<14} {'unit':<6} {'median':>12} {'Q1':>12} {'Q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "!" if spread > m["bound"] else ("~" if spread > m["bound"] / 3 else "")
            bad |= flag == "!"
            print(f"  {m['name']:<14} {m['unit']:<6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {m['bound']:>6g} {flag}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
