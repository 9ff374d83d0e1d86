"""Tests of the qxmap benchmark itself.

    python3 qxbench/test_qxbench.py

The driver tests build it first (as run.py does), so the first run takes a
minute or two.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402
import run  # noqa: E402


class PercentileAndRatioTest(unittest.TestCase):
    def test_percentile_interpolates_between_ranks(self):
        values = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]
        self.assertAlmostEqual(metrics.percentile(values, 50), 5.5)
        self.assertAlmostEqual(metrics.percentile(values, 90), 9.1)
        self.assertEqual(metrics.percentile(values, 0), 1)
        self.assertEqual(metrics.percentile(values, 100), 10)
        self.assertEqual(metrics.percentile([4.0], 90), 4.0)
        self.assertEqual(metrics.percentile([], 50), 0.0)

    def test_ratio_of_nothing_is_zero(self):
        self.assertEqual(metrics.ratio(3, 4), 0.75)
        self.assertEqual(metrics.ratio(3, 0), 0.0)

    def test_end_to_end_ratios(self):
        report = fake_report(ms=[1.0, 2.0, 3.0, 4.0], cost_f=[10, 0, 5, 5], gates=[20, 20, 30, 30])
        report.update(timed_s=2.0, attempted=5, failed=1)
        e2e = metrics.end_to_end(report, [0.3, 0.1, 0.2])
        self.assertAlmostEqual(e2e["maps_per_s"], 2.0)
        self.assertAlmostEqual(e2e["ok_share"], 0.8)
        self.assertAlmostEqual(e2e["mapped_size_ratio"], (1.5 * 1.0 * (35 / 30) ** 2) ** 0.25)
        extra = metrics.unbounded_end_to_end(report)
        self.assertAlmostEqual(extra["added_gates_ratio"], 0.2)
        self.assertAlmostEqual(extra["failed_share"], 0.2)
        self.assertAlmostEqual(e2e["map_ms_p50"], 2.5)
        self.assertAlmostEqual(e2e["setup_s"], 0.2)


class RegistryDeltaTest(unittest.TestCase):
    BEFORE = {
        "qxmap_cdcl_conflicts_total": 100,
        "qxmap_executor_queue_depth_high_water": 3,
        "qxmap_executor_queue_wait_us": {"count": 2, "sum": 5, "buckets": {"2": 1, "4": 2,
                                                                           "+Inf": 2}},
    }
    AFTER = {
        "qxmap_cdcl_conflicts_total": 130,
        "qxmap_executor_queue_depth_high_water": 7,
        "qxmap_new_total": 4,
        # Ten more observations: four in (2, 4], six in (8, 16].
        "qxmap_executor_queue_wait_us": {"count": 12, "sum": 100,
                                         "buckets": {"2": 1, "4": 6, "16": 12, "+Inf": 12}},
    }

    def test_counters_gauges_and_histograms(self):
        delta = metrics.registry_delta(self.BEFORE, self.AFTER)
        self.assertEqual(delta["qxmap_cdcl_conflicts_total"], 30)
        self.assertEqual(delta["qxmap_new_total"], 4)
        self.assertEqual(delta["qxmap_executor_queue_depth_high_water"], 7)
        wait = delta["qxmap_executor_queue_wait_us"]
        self.assertEqual(wait["count"], 10)
        self.assertEqual(wait["sum"], 95)
        self.assertEqual(wait["cumulative"][:5], [0, 0, 4, 4, 10])
        self.assertEqual(wait["cumulative"][-1], 10)

    def test_histogram_quantile_interpolates_inside_the_bucket(self):
        wait = metrics.registry_delta(self.BEFORE, self.AFTER)["qxmap_executor_queue_wait_us"]
        # Rank 5 of 10 is the first of six observations in (8, 16].
        self.assertAlmostEqual(metrics.histogram_quantile(wait, 0.5), 8 + 8 * (1 / 6))
        self.assertAlmostEqual(metrics.histogram_quantile(wait, 0.2), 2 + 2 * (2 / 4))
        empty = metrics.histogram_delta(None, {"count": 0, "sum": 0, "buckets": {"+Inf": 0}})
        self.assertEqual(metrics.histogram_quantile(empty, 0.9), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_per_thread(self):
        events = [
            span("bench", "bench.map", 0, 100, tid=0),
            span("exact", "exact.map", 10, 60, tid=0),
            span("cdcl", "cdcl.minimize", 20, 30, tid=0),
            span("bench", "bench.verify", 80, 10, tid=0),
            span("exact", "exact.shard", 15, 40, tid=1),
            {"name": "cdcl.restart", "cat": "cdcl", "ph": "i", "ts": 25, "tid": 0},
        ]
        self.assertEqual(metrics.self_times(events), {
            ("bench", "bench.map"): 30.0,
            ("exact", "exact.map"): 30.0,
            ("cdcl", "cdcl.minimize"): 30.0,
            ("bench", "bench.verify"): 10.0,
            ("exact", "exact.shard"): 40.0,
        })
        layers = metrics.layer_self_ms(events)
        self.assertAlmostEqual(layers["exact"], 0.07)
        self.assertAlmostEqual(layers["api"], 0.03)
        self.assertAlmostEqual(layers["reason"], 0.03)
        self.assertAlmostEqual(layers["sim"], 0.01)


class DeclaredMetricsTest(unittest.TestCase):
    def test_reducers_produce_exactly_the_declared_metrics(self):
        report = fake_report(ms=[1.0], cost_f=[3], gates=[9])
        self.assertEqual(set(metrics.end_to_end(report, [0.1])), set(run.declared("end_to_end")))
        self.assertEqual(set(metrics.per_layer(report, report, [])),
                         set(run.declared("per_layer")))

    def test_workloads_are_declared(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


class DriverTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def driver(self, *args):
        return subprocess.run([run.DRIVER, *args], stdout=subprocess.PIPE, check=True,
                              timeout=300).stdout.decode()

    def test_same_seed_gives_identical_inputs(self):
        for workload in run.WORKLOADS:
            first = self.driver("inputs", "--workload", workload, "--seed", "7", "--count", "60")
            again = self.driver("inputs", "--workload", workload, "--seed", "7", "--count", "60")
            other = self.driver("inputs", "--workload", workload, "--seed", "8", "--count", "60")
            self.assertEqual(first, again, workload)
            self.assertNotEqual(first, other, workload)
            self.assertGreaterEqual(len(first.splitlines()), 60)

    def test_checker_counts_a_wrong_cost_as_a_failure(self):
        out = self.driver("selftest")
        self.assertIn("ok   honest", out)
        self.assertIn("ok   cost_below_optimum", out)
        self.assertIn("ok   proven_cost_above_optimum", out)

    def test_every_printed_metric_is_declared(self):
        for workload in run.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                done = subprocess.run(
                    [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
                     "--seed", "3", "--seconds", "2", "--trace", str(trace)],
                    stdout=subprocess.PIPE, check=True, timeout=300)
                result = json.loads(done.stdout.decode().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], (workload, trace))
                declared = run.declared(kind)
                self.assertEqual(set(result["metrics"]), set(declared), (workload, trace))
                for name, m in result["metrics"].items():
                    self.assertEqual(m["unit"], declared[name])


def span(cat, name, ts, dur, tid):
    return {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur, "tid": tid}


def fake_report(ms, cost_f, gates):
    n = len(ms)
    return {
        "ms": ms, "label": ["exact"] * n, "from_cache": [False] * n, "proven": [True] * n,
        "cost_f": cost_f, "gates": gates, "cnots": [1] * n, "swaps": [0] * n,
        "optimum": cost_f, "req_parse_us": [-1.0] * n, "req_write_us": [-1.0] * n,
        "reference_ms": [1.0], "verify_ms": [1.0], "write_us": [1.0], "parse_us": [1.0],
        "parsed_gates": [9], "key_us": [1.0], "prefix_vars": [10],
        "prefix_clauses": [20], "errors": [], "timed_s": 1.0, "callers": 1,
        "executor_threads": 4, "attempted": n, "failed": 0, "peak_rss_kb": 2048,
        "setup_ms": {"swap_table": 1.0, "distances": 0.0},
        "registry_before": {}, "registry_after": {},
    }


if __name__ == "__main__":
    unittest.main()
