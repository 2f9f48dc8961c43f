#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly and prints each end-to-end
metric's spread next to its bound.

    python3 vsdbench/steady.py [--workload W ...] [--first-seed 1]

Runs two sets of ten untraced runs per workload, at the run length in
BENCHMARK.json; each run takes the next seed.  For every workload and
metric it prints each set's median and quartile spread (q3 - q1 as a share
of the median, statistics.quantiles(values, n=4)) next to the metric's
bound, and how far the second set's median moved against the first in the
metric's worse direction.  A spread or a worsening beyond the bound, a run
that is not correct, or failed shares that differ between runs is flagged
and makes the exit code 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

SETS = 2
RUNS = 10


def one_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(metrics.RUN_SECONDS),
         "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worsening(first, second, better):
    """How far `second` is worse than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=metrics.WORKLOADS)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    ok = True
    seed = args.first_seed
    for workload in args.workload or metrics.WORKLOADS:
        sets = []
        for _ in range(SETS):
            results = []
            for _ in range(RUNS):
                results.append(one_run(workload, seed))
                seed += 1
            sets.append(results)
        shares = {r["failed"] / r["attempted"] for s in sets for r in s}
        correct = all(r["correct"] for s in sets for r in s)
        print(f"{workload}: {SETS} x {RUNS} runs, failed share "
              f"{sorted(shares)}, correct {correct}")
        if len(shares) != 1 or not correct:
            ok = False
        for name, (unit, better, bound) in metrics.END_TO_END.items():
            row = []
            medians = []
            for s in sets:
                values = [r["metrics"][name]["value"] for r in s]
                sp = metrics.spread(values)
                medians.append(statistics.median(values))
                flag = " OVER" if sp > bound else ""
                ok = ok and not flag
                row.append(f"median {medians[-1]:.6g} {unit} spread {sp:.3f}{flag}")
            w = worsening(medians[0], medians[1], better)
            flag = " OVER" if w > bound else ""
            ok = ok and not flag
            print(f"  {name:<20} bound {bound:<5} " + " | ".join(row) +
                  f" | second set worse by {w:+.3f}{flag}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
