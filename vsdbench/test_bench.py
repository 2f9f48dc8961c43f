#!/usr/bin/env python3
"""The benchmark's own tests: the percentile rule, the self-time
computation, and (through the built vsdbench_corpus_test) the verify corpus
constructors.

    python3 vsdbench/test_bench.py
"""

import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402
import run  # noqa: E402


def span(name, ts, dur, tid=1):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "tid": tid}


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile(values, 90), 90)
        self.assertEqual(metrics.percentile(values, 100), 100)
        self.assertEqual(metrics.percentile([7.5], 90), 7.5)
        self.assertEqual(metrics.percentile([1, 2, 3], 50), 2)

    def test_samples_beyond_p90(self):
        self.assertEqual(metrics.samples_beyond(100, 90), 10)
        self.assertEqual(metrics.samples_beyond(99, 90), 9)
        self.assertEqual(metrics.samples_beyond(250, 90), 25)

    def test_tail_needs_ten_samples_beyond_p90(self):
        raw = {"setup_s": [1.0], "tokens": 10, "wall_s": 1.0, "cpu_s": 1.0,
               "peak_rss_mb": 1.0, "latencies_s": [0.1] * 99}
        with self.assertRaises(ValueError):
            metrics.end_to_end(raw)
        raw["latencies_s"] = [0.001 * i for i in range(1, 101)]
        m = metrics.end_to_end(raw)
        self.assertAlmostEqual(m["latency_p50_s"], 0.05)
        self.assertAlmostEqual(m["latency_p90_s"], 0.09)
        self.assertAlmostEqual(m["cpu_ms_per_request"], 10.0)

    def test_spread(self):
        self.assertAlmostEqual(metrics.spread([10.0] * 10), 0.0)
        values = [9, 10, 10, 10, 11, 10, 10, 10, 9, 11]
        self.assertGreater(metrics.spread(values), 0.0)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        events = [
            span("run", 0, 100),
            span("tick", 10, 20),
            span("tick", 40, 20),
            span("accept", 45, 5),
            span("other_lane", 0, 100, tid=2),  # overlaps, different thread
            {"name": "request", "ph": "b", "ts": 0, "id": 1},
        ]
        st = metrics.self_times(events)
        self.assertAlmostEqual(st["run"][0], 60e-6)
        self.assertEqual(sorted(round(x * 1e6, 6) for x in st["tick"]), [15, 20])
        self.assertAlmostEqual(st["accept"][0], 5e-6)
        self.assertAlmostEqual(st["other_lane"][0], 100e-6)
        self.assertNotIn("request", st)

    def test_adjacent_siblings_and_shared_start(self):
        events = [span("a", 0, 10), span("b", 10, 10), span("c", 10, 4),
                  span("d", 14, 6)]
        st = metrics.self_times(events)
        self.assertAlmostEqual(st["a"][0], 10e-6)
        self.assertAlmostEqual(st["b"][0], 0.0)
        self.assertAlmostEqual(st["c"][0], 4e-6)
        self.assertAlmostEqual(st["d"][0], 6e-6)

    def test_child_overhanging_parent_is_clipped(self):
        st = metrics.self_times([span("p", 0, 10), span("c", 8, 2.0005)])
        self.assertAlmostEqual(st["p"][0], 8e-6)


class Corpus(unittest.TestCase):
    def test_constructors_give_known_verdicts(self):
        run.build()
        proc = subprocess.run([str(run.CORPUS_TEST)], stdout=subprocess.PIPE,
                              text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)


if __name__ == "__main__":
    unittest.main()
