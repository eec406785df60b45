#!/usr/bin/env python3
"""Self-checks of the benchmark's statistics and result schema.

    python3 perfbench/test_stats.py
"""

import json
import math
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(xs, 50), 50)
        self.assertEqual(stats.percentile(xs, 90), 90)
        self.assertEqual(stats.percentile(xs, 99), 99)
        self.assertEqual(stats.percentile(xs, 100), 100)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)

    def test_order_does_not_matter(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(stats.percentile(xs, 60), 3.0)
        self.assertEqual(stats.percentile(sorted(xs), 60), 3.0)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.samples_beyond(99, 90), 9)
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertEqual(stats.samples_beyond(999, 99), 9)

    def test_highest_percentile_needs_ten_beyond(self):
        self.assertIsNone(stats.highest_percentile(19))
        self.assertEqual(stats.highest_percentile(20), 50.0)
        self.assertEqual(stats.highest_percentile(39), 50.0)
        self.assertEqual(stats.highest_percentile(40), 75.0)
        self.assertEqual(stats.highest_percentile(99), 75.0)
        self.assertEqual(stats.highest_percentile(100), 90.0)
        self.assertEqual(stats.highest_percentile(999), 90.0)
        self.assertEqual(stats.highest_percentile(1000), 99.0)
        self.assertEqual(stats.highest_percentile(10000), 99.9)


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        xs = [3.1, 9.2, 4.4, 7.0, 5.5, 6.1, 8.8, 2.0, 4.9, 5.0]
        self.assertEqual(stats.quartiles(xs), tuple(statistics.quantiles(xs, n=4)))

    def test_spread_is_iqr_over_median(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(stats.spread(xs), (q3 - q1) / q2)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.spread([2.5] * 10), 0.0)

    def test_zero_median_is_infinite_spread(self):
        self.assertTrue(math.isinf(stats.spread([0.0, 0.0, 0.0, 1.0])))


def span(id_, parent, ts, dur, name="s", op=1):
    return {"id": id_, "parent": parent, "ts": ts, "dur": dur, "name": name,
            "op": op}


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_duration(self):
        self.assertEqual(stats.self_times([span(1, 0, 0, 10)]), {1: 10})

    def test_children_are_subtracted(self):
        selfs = stats.self_times([span(1, 0, 0, 100), span(2, 1, 10, 30),
                                  span(3, 1, 50, 20)])
        self.assertEqual(selfs[1], 50)
        self.assertEqual(selfs[2], 30)

    def test_overlapping_children_count_once(self):
        # Children on other threads may overlap; their union is covered.
        selfs = stats.self_times([span(1, 0, 0, 100), span(2, 1, 10, 40),
                                  span(3, 1, 30, 40)])
        self.assertEqual(selfs[1], 40)

    def test_children_are_clipped_to_the_parent(self):
        selfs = stats.self_times([span(1, 0, 0, 50), span(2, 1, 40, 30)])
        self.assertEqual(selfs[1], 40)

    def test_grandchildren_only_reduce_their_parent(self):
        selfs = stats.self_times([span(1, 0, 0, 100), span(2, 1, 0, 60),
                                  span(3, 2, 0, 60)])
        self.assertEqual(selfs, {1: 40, 2: 0, 3: 60})

    def test_rollup_sums_per_op_and_takes_the_median(self):
        events = [span(1, 0, 0, 1000, "a", op=1), span(2, 0, 0, 3000, "a", op=1),
                  span(3, 0, 0, 2000, "a", op=2), span(4, 0, 0, 9000, "a", op=3)]
        rollup = stats.self_time_rollup(events)
        self.assertEqual(rollup["a"], {1: 4.0, 2: 2.0, 3: 9.0})
        self.assertEqual(stats.median_per_op(rollup, "a"), 4.0)
        self.assertEqual(stats.median_per_op(rollup, "missing"), 0.0)

    def test_chrome_round_trip(self):
        doc = {"traceEvents": [
            {"name": "x", "ph": "X", "ts": 1.5, "dur": 2.0, "pid": 1, "tid": 1,
             "args": {"id": 7, "parent": 0, "op": 3}},
            {"name": "meta", "ph": "M", "args": {}}]}
        self.assertEqual(stats.load_chrome_events(doc),
                         [{"name": "x", "ts": 1.5, "dur": 2.0, "id": 7,
                           "parent": 0, "op": 3}])


class ResultSchema(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def result(self, trace=False):
        names = self.spec["per_layer" if trace else "end_to_end"]
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                            for m in names}}

    def test_valid_results(self):
        self.assertEqual(stats.validate_result(self.result(), self.spec, False), [])
        self.assertEqual(stats.validate_result(self.result(True), self.spec, True), [])

    def test_wrong_metric_set(self):
        self.assertTrue(stats.validate_result(self.result(True), self.spec, False))
        r = self.result()
        r["metrics"].pop("setup_s")
        self.assertTrue(stats.validate_result(r, self.spec, False))

    def test_extra_key(self):
        r = self.result()
        r["seed"] = 1
        self.assertTrue(stats.validate_result(r, self.spec, False))

    def test_bad_values(self):
        for bad in (math.nan, math.inf, "1", True, None):
            r = self.result()
            r["metrics"]["setup_s"]["value"] = bad
            self.assertTrue(stats.validate_result(r, self.spec, False), bad)

    def test_bad_unit_and_counts(self):
        r = self.result()
        r["metrics"]["setup_s"]["unit"] = "ms"
        self.assertTrue(stats.validate_result(r, self.spec, False))
        for key, bad in (("attempted", 0), ("failed", -1), ("attempted", 1.0),
                         ("correct", 1)):
            r = self.result()
            r[key] = bad
            self.assertTrue(stats.validate_result(r, self.spec, False), key)


class BenchmarkSpec(unittest.TestCase):
    """BENCHMARK.json and perfbench/metric_map.json describe the same
    metrics and workloads."""

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    mapping = json.loads((ROOT / "perfbench" / "metric_map.json").read_text())

    def test_every_metric_is_mapped(self):
        for kind in ("end_to_end", "per_layer"):
            self.assertEqual({m["name"] for m in self.spec[kind]},
                             set(self.mapping[kind]), kind)
        self.assertEqual({w["name"] for w in self.spec["workloads"]},
                         set(self.mapping["workloads"]))

    def test_per_layer_moves_name_end_to_end_metrics(self):
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        workloads = {w["name"] for w in self.spec["workloads"]}
        for name, entry in self.mapping["per_layer"].items():
            for target in entry["moves"]:
                self.assertIn(target["metric"], e2e, name)
                self.assertIn(target["workload"], workloads, name)

    def test_setup_bound_is_the_largest(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertLessEqual(bounds["setup_s"], 0.25)


if __name__ == "__main__":
    unittest.main()
