#!/usr/bin/env python3
"""The repository's benchmark: checked Verilog serving plus a known-answer
verify corpus.

    python3 vsdbench/run.py --workload dec_closed8 --seed 1 --seconds 10 --trace 0

Builds vsdbench/ (and the repository's libraries it links) into
.bench_build/vsdbench at the checkout root, runs the driver for one
workload, checks its outputs, and prints as the last line one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics (from a separate traced run) with
--trace 1.  A one-line run report (build, host, seed, counts, steal) is
printed before it and kept under .bench_out/.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "vsdbench"
OUT_DIR = ROOT / ".bench_out"
DRIVER = BUILD_DIR / "vsdbench_driver"
CORPUS_TEST = BUILD_DIR / "vsdbench_corpus_test"
DRIVER_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
import metrics  # noqa: E402


def build():
    """Configures and builds the driver and the corpus self-test."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target",
                    DRIVER.name, CORPUS_TEST.name],
                   stdout=sys.stderr, check=True)


def run_driver(workload, seed, seconds, trace_file):
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 1 <= args.seconds <= 600:
        ap.error("--seconds must be within 1..600")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{args.workload}.json" if args.trace else None
    try:
        raw = run_driver(args.workload, args.seed, args.seconds, trace_file)
        if args.trace:
            with open(trace_file) as f:
                events = json.load(f)["traceEvents"]
            values = metrics.per_layer(raw, events)
            units = {k: v[0] for k, v in metrics.PER_LAYER.items()}
        else:
            values = metrics.end_to_end(raw)
            units = {k: v[0] for k, v in metrics.END_TO_END.items()}
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        print(f"run.py: {args.workload} run failed: {e}", file=sys.stderr)
        return 1

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": raw["env"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "host.steal_s": raw["steal_s"],
        "metrics": values,
    }
    if "full_chain_step_share" in raw:
        # Serving only: a run in which every decode step accepted the whole
        # drafted chain never exercised rejection or rollback.
        share = raw["full_chain_step_share"]
        report["spec.full_chain_step_share"] = share
        report["saturated_acceptance"] = share >= 1.0
        if share >= 1.0:
            print("run.py: warning: every decode step accepted the full "
                  "drafted chain; rejection and rollback did not run",
                  file=sys.stderr)
    report_file = OUT_DIR / (f"report-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    report_file.write_text(json.dumps(report, indent=1) + "\n")
    print("# report " + json.dumps(report, separators=(",", ":")))
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
