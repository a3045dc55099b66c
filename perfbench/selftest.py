"""Self-tests of the benchmark: its statistics, its span arithmetic, and a
one-unit run of every workload.

    python3 perfbench/selftest.py

Run from the root of a checkout.  The smoke runs start ``run.py`` one after
another, as the benchmark's users do, and take about two minutes.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import layers
import measure
import run
import tracing

ROOT = Path.cwd()


class FakeClock:
    """Clock returning scripted times, so span arithmetic is exact."""

    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


class TailRule(unittest.TestCase):
    def test_ten_samples_lie_beyond_the_tail(self):
        values = list(range(1, 101))  # 1..100
        value, beyond = measure.tail(values)
        self.assertEqual((value, beyond), (90, 10))
        self.assertEqual(sum(v > value for v in values), 10)

    def test_small_runs_never_fall_below_the_median(self):
        for n in range(1, 25):
            values = list(range(n))
            value, beyond = measure.tail(values)
            self.assertEqual(beyond, min(10, (n - 1) // 2))
            self.assertEqual(sum(v > value for v in values), beyond)
            self.assertGreaterEqual(value, measure.median(values))

    def test_order_does_not_matter(self):
        self.assertEqual(measure.tail([5, 1, 4, 2, 3]), measure.tail([1, 2, 3, 4, 5]))


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # unit [0, 10]: a [1, 6] holding b [2, 3] and c [4, 5.5]; d [7, 9]
        clock = FakeClock([0, 1, 2, 3, 4, 5.5, 6, 7, 9, 10])
        t = tracing.Tracer(clock=clock)
        u = t.begin_unit(0)
        a = t.open(t.name_id("inference.fit"))
        b = t.open(t.name_id("baseline.cum_block"))
        t.close(b)
        c = t.open(t.name_id("baseline.haz_block"))
        t.close(c)
        t.close(a)
        d = t.open(t.name_id("lifetable.rates_at"))
        t.close(d)
        t.end_unit(u)
        selfs = tracing.self_times(t.start, t.end, t.parent)
        self.assertEqual(selfs, [10 - 5 - 2, 5 - 1 - 1.5, 1, 1.5, 2])
        row = tracing.unit_breakdown(t)[0]
        self.assertEqual(row["self_s"], {"unaccounted": 3, "inference": 2.5,
                                         "baseline": 2.5, "lifetable": 2})
        self.assertEqual(row["closure_error_s"], 0.0)

    def test_overlapping_children_are_counted_once(self):
        selfs = tracing.self_times([0.0, 1.0, 2.0], [10.0, 5.0, 12.0], [-1, 0, 0])
        self.assertEqual(selfs[0], 10 - 9)  # children cover [1, 10] of [0, 10]

    def test_wrapped_calls_nest_and_count(self):
        t = tracing.Tracer()

        def inner(xs):
            return len(xs)

        def outer(xs):
            return wrapped_inner(xs) + 1

        wrapped_inner = t.wrap("model.laplace", inner, elems=0)
        wrapped_outer = t.wrap("inference.fit", outer)
        u = t.begin_unit(0)
        self.assertEqual(wrapped_outer([1, 2, 3]), 4)
        t.end_unit(u)
        self.assertEqual(list(t.parent), [-1, 0, 1])
        self.assertEqual(list(t.elems), [0, 0, 3])
        metrics = layers.compute(t, [t.end[0] - t.start[0]], 1.0, 0.0)
        self.assertEqual(metrics["model.laplace.calls"], 1)
        self.assertEqual(metrics["model.laplace.elems"], 3)
        parts = sum(metrics[f"{layer}.self_s"] for layer in ("inference", "model"))
        self.assertAlmostEqual(parts + metrics["unaccounted_s"], metrics["trace.unit_p50_s"],
                               places=12)


class FailedShare(unittest.TestCase):
    def test_a_unit_fails_on_any_reason(self):
        self.assertEqual(measure.failed_share([[], ["fit did not converge"], [], ["a", "b"]]),
                         (4, 2, 0.5))

    def test_no_failures(self):
        self.assertEqual(measure.failed_share([[], []]), (2, 0, 0.0))


class Contract(unittest.TestCase):
    def test_metric_names_match_the_benchmark_file(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.UNITS))
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         [name for name, *_ in layers.PER_LAYER])
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))

    def test_fails_without_the_package(self):
        bare = ROOT / ".perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "model_grid",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


class Smoke(unittest.TestCase):
    """One short run of each workload through the command, traced and not."""

    def run_workload(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_workload(self):
        e2e = set(run.UNITS)
        per_layer = {name for name, *_ in layers.PER_LAYER}
        for workload in run.WORKLOADS:
            for trace, names in ((0, e2e), (1, per_layer)):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_workload(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), names)
            record = json.loads((ROOT / ".perfbench" / "results" /
                                 f"{workload}-seed0-trace1.json").read_text())
            self.assertLess(record["max_closure_error_s"], 1e-9)


if __name__ == "__main__":
    unittest.main()
