"""Metric definitions and the arithmetic behind them.

Turns the driver's raw measurements (one JSON object) and, for traced
runs, its Chrome-trace timeline into the benchmark's named metrics.  The
metric tables are read from BENCHMARK.json; the arithmetic is kept free of
I/O so test_bench.py can check the percentile rule and the self-time
computation directly.
"""

import json
import math
import statistics
from collections import defaultdict
from pathlib import Path

SCHEDULER_PHASES = ("admit", "propose", "gather", "score", "scatter", "accept",
                    "capture")

# Workloads, run length, and every metric's unit, direction and (end-to-end
# only) bound: the share of the parent's median by which the metric may
# worsen before a change counts as a regression.
_SPEC = json.loads((Path(__file__).resolve().parent.parent /
                    "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
RUN_SECONDS = _SPEC["run_seconds"]
# name -> (unit, better, bound)
END_TO_END = {m["name"]: (m["unit"], m["better"], m["bound"])
              for m in _SPEC["end_to_end"]}
# name -> (unit, better).  Figures a workload does not exercise read 0.
PER_LAYER = {m["name"]: (m["unit"], m["better"]) for m in _SPEC["per_layer"]}

# Figures the driver computes from the program's own accounting
# (ServeStats, DecodeResult, SessionCache::stats) and passes through
# unchanged; counts are per completed request (per corpus pass for
# sim.diff_checks).
PASSED_THROUGH = (
    "serve.ticks", "serve.tick_p50_s", "serve.occupancy_mean",
    "serve.fused_rows_per_pass", "serve.queue_wait_p50_s", "serve.ttft_p50_s",
    "serve.check.lint_p50_s", "serve.check.elab_p50_s",
    "serve.cache.hit_positions_share", "serve.cache.hits", "serve.cache.misses",
    "spec.tokens_per_step", "spec.positions_per_token",
    "spec.budget_overshoot_tokens", "nn.kv.pages_total",
    "nn.kv.pages_cow_cloned", "sim.diff_checks",
)

# Benchmark spans whose self time gives a per-layer latency (median, us).
SPAN_P50_US = {
    "vlog.lint_p50_us": "vlog.lint_source",
    "vlog.elab_p50_us": "vlog.elab_lint_source",
    "sim.compile_p50_us": "sim.check_compiles",
    "sim.diff_p50_us": "sim.diff_check",
}

SETUP_SPANS = {
    "setup.dataset_s": "setup.dataset",
    "setup.tokenizer_s": "setup.tokenizer",
    "setup.train_s": "setup.train",
}

# A latency percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """How many of n samples lie beyond the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def self_times(events):
    """Self time of every complete ("X") span, in seconds, grouped by name.

    A span's self time is its duration minus the part of it that spans
    nested inside it on the same lane (thread) cover.  Spans on one lane
    nest properly, so the covered part is the sum of the immediate
    children's durations, each clipped to its parent.
    """
    lanes = defaultdict(list)
    for e in events:
        if e.get("ph") == "X":
            lanes[e.get("tid", 0)].append(e)
    out = defaultdict(list)
    for lane in lanes.values():
        lane.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end_us, name, dur_us, covered_us]

        def close(item):
            out[item[1]].append(max(0.0, item[2] - item[3]) / 1e6)

        for e in lane:
            start, dur = float(e["ts"]), float(e["dur"])
            while stack and stack[-1][0] <= start:
                close(stack.pop())
            if stack:
                stack[-1][3] += min(dur, stack[-1][0] - start)
            stack.append([start + dur, e["name"], dur, 0.0])
        while stack:
            close(stack.pop())
    return dict(out)


def end_to_end(raw):
    """The six end-to-end metrics of one untraced run."""
    lat = raw["latencies_s"]
    if samples_beyond(len(lat), 90) < MIN_BEYOND:
        raise ValueError(f"{len(lat)} latency samples leave fewer than "
                         f"{MIN_BEYOND} beyond p90")
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "tokens_per_s": raw["tokens"] / raw["wall_s"],
        "latency_p50_s": percentile(lat, 50),
        "latency_p90_s": percentile(lat, 90),
        "cpu_ms_per_request": 1000.0 * raw["cpu_s"] / len(lat),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw, events):
    """Every per-layer metric of one traced run (0 where unexercised)."""
    layer = raw["layer"]
    spans = self_times(events)

    def med(name):
        xs = spans.get(name)
        return statistics.median(xs) if xs else 0.0

    m = {name: 0.0 for name in PER_LAYER}
    for name in PASSED_THROUGH:
        m[name] = float(layer.get(name, 0.0))
    for name, span in SETUP_SPANS.items():
        m[name] = med(span)
    steps = layer.get("spec.train_steps", 0)
    if steps:
        m["spec.train_step_ms"] = 1000.0 * m["setup.train_s"] / steps
    ticks = len(spans.get("tick", []))
    if ticks:
        for p in SCHEDULER_PHASES:
            m[f"serve.phase.{p}_s"] = sum(spans.get(p, [])) / ticks
    if layer.get("nn.chain_len"):
        m["nn.feed_us_per_position"] = 1e6 * med("nn.feed") / layer["nn.chain_len"]
    if layer.get("nn.fused_width"):
        m["nn.logits_us_per_row"] = 1e6 * med("nn.logits") / layer["nn.fused_width"]
    for name, span in SPAN_P50_US.items():
        xs = spans.get(span)
        m[name] = 1e6 * percentile(xs, 50) if xs else 0.0
    m["proc.cpu_per_wall"] = raw["cpu_s"] / raw["wall_s"]
    m["host.steal_s"] = raw["steal_s"]
    traced_tps = raw["tokens"] / raw["wall_s"]
    m["trace.overhead_share"] = 1.0 - traced_tps / raw["untraced_tokens_per_s"]
    return m


def spread(values):
    """Distance between the first and third quartile as a share of the
    median (statistics.quantiles(values, n=4))."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")
