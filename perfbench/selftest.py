"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Kept out of the repository's pytest collection on purpose: the smoke runs
drive every workload and take about half a minute.
"""

import json
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def span(name, start, end, parent=None, job=0, size=None, out=None):
    return [name, start, end, parent, job, size, out]


class TailPercentile(unittest.TestCase):
    def test_tail_never_below_median_and_leaves_ten_beyond(self):
        rng = random.Random(1)
        for n in range(1, 160):
            for shape in ("uniform", "skewed", "ties"):
                if shape == "uniform":
                    values = [rng.random() for _ in range(n)]
                elif shape == "skewed":
                    values = [rng.expovariate(1) ** 3 for _ in range(n)]
                else:
                    values = [rng.choice((1.0, 2.0, 3.0)) for _ in range(n)]
                q, tail = run.tail_percentile(values)
                median = sorted(values)[(n - 1) // 2] if n % 2 else \
                    (sorted(values)[n // 2 - 1] + sorted(values)[n // 2]) / 2
                self.assertGreaterEqual(tail, median, (n, shape))
                if q > 50:
                    rank = -(-q * n // 100)
                    self.assertGreaterEqual(n - rank, run.TAIL_BEYOND, (n, q))
                    self.assertEqual(q, max(p for p in range(101)
                                            if n - -(-p * n // 100) >= run.TAIL_BEYOND))

    def test_few_samples_fall_back_to_the_median(self):
        self.assertEqual(run.tail_percentile([3.0, 1.0, 2.0]), (50, 2.0))
        self.assertEqual(run.tail_percentile([float(v) for v in range(20)])[0], 50)

    def test_forty_samples_give_p75(self):
        q, tail = run.tail_percentile([float(v) for v in range(1, 41)])
        self.assertEqual((q, tail), (75, 30.0))


class SelfTimes(unittest.TestCase):
    def test_nested_tree(self):
        spans = [span("root", 0.0, 10.0),
                 span("a", 1.0, 4.0, parent=0),
                 span("a.child", 2.0, 3.0, parent=1),
                 span("b", 5.0, 9.0, parent=0)]
        self.assertEqual(tracing.self_times(spans), [3.0, 2.0, 1.0, 4.0])

    def test_overlapping_children_are_counted_once(self):
        spans = [span("root", 0.0, 10.0),
                 span("x", 1.0, 5.0, parent=0),
                 span("y", 3.0, 7.0, parent=0),
                 span("z", 8.0, 12.0, parent=0)]
        self.assertEqual(tracing.self_times(spans)[0], 10.0 - 6.0 - 2.0)

    def test_job_metrics_counts_and_ratios(self):
        spans = [span("forbidden.interval_schedule", 0.0, 8.0, out=1),
                 span("forbidden.derandomize_family", 0.0, 1.0, parent=0),
                 span("forbidden.derandomize_family", 1.0, 7.0, parent=0),
                 span("forbidden.family_avoid_probability", 2.0, 3.0, parent=2),
                 span("forbidden.family_avoid_probability", 3.0, 4.0, parent=2),
                 span("avoider.build", 10.0, 14.0, size=100, out=7),
                 span("core.random_bits", 10.0, 11.0, parent=5, size=100),
                 span("core.random_bits", 12.0, 13.0, parent=5, size=60),
                 span("core.random_bits", 15.0, 16.0, size=999)]
        selfs = tracing.self_times(spans)
        rows = [(i, s, own) for i, (s, own) in enumerate(zip(spans, selfs))]
        metrics, layers = tracing.job_metrics(rows, ref_s=0.5)
        self.assertEqual(metrics["forbidden.derandomize.attempts"], 2)
        self.assertEqual(metrics["forbidden.schedule.useful_ratio"], 0.5)
        self.assertEqual(metrics["avoider.resamples"], 7)
        self.assertEqual(metrics["avoider.useful_ratio"], 100 / 160)
        self.assertEqual(metrics["core.random_bits.bits"], 1159)
        self.assertEqual(metrics["forbidden.interval_schedule.self_ref"], 1.0 / 0.5)
        self.assertEqual(layers["forbidden"], 8.0)
        self.assertEqual(set(metrics) | {"cli.report_bytes", "trace.overhead"},
                         {name for name, _ in tracing.PER_LAYER})


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        self.assertEqual([(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]],
                         tracing.PER_LAYER)
        self.assertEqual([(w["name"], w["why"]) for w in BENCHMARK["workloads"]],
                         [(w.name, w.why) for w in WORKLOADS.values()])

    def test_refuses_to_run_without_sources(self):
        lone = run.SCRATCH / "selftest-no-src"
        shutil.rmtree(lone, ignore_errors=True)
        shutil.copytree(HERE, lone / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            child = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=lone, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=120)
        finally:
            shutil.rmtree(lone, ignore_errors=True)
        self.assertNotEqual(child.returncode, 0)
        self.assertEqual(child.stdout, "")


class Smoke(unittest.TestCase):
    """Two jobs of every workload, untraced and traced."""

    def run_bench(self, workload, trace):
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
             "--seconds", "120", "--max-jobs", "2", "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=300, check=True)
        lines = child.stdout.strip().splitlines()
        return json.loads(lines[-2])["diagnostics"], json.loads(lines[-1])

    def test_every_workload(self):
        expected = {0: run.END_TO_END, 1: tracing.PER_LAYER}
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    diagnostics, result = self.run_bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], diagnostics["failures"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(diagnostics["error_rate"], 0)
                    self.assertEqual(result["attempted"], 2 * (1 + trace))
                    self.assertEqual([(name, entry["unit"])
                                      for name, entry in result["metrics"].items()],
                                     expected[trace])
                    if trace == 0:
                        metrics = {k: v["value"] for k, v in result["metrics"].items()}
                        self.assertGreaterEqual(metrics["job_ref.tail"],
                                                metrics["job_ref.p50"])
                        self.assertTrue(all(v > 0 for v in metrics.values()))


if __name__ == "__main__":
    unittest.main()
