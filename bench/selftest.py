"""Fast tests of the benchmark harness itself, kept out of the project's suite.

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import math
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from harness import Outcomes, Span, Tracer, self_times, supported_percentile  # noqa: E402
from tracing import PER_LAYER, per_layer_metrics  # noqa: E402


class FakeClock:
    """A clock that moves only when `step` is called."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def step(self, dt):
        self.now += dt


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        value, beyond = supported_percentile(range(1, 1001), 99)
        self.assertEqual((value, beyond), (990, 10))
        with self.assertRaises(ValueError):
            supported_percentile(range(1, 1000), 99)

    def test_nearest_rank_ignores_input_order(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        self.assertEqual(supported_percentile(samples, 50), (3.0, 25))

    def test_empty(self):
        with self.assertRaises(ValueError):
            supported_percentile([], 50)


class SelfTimes(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            Span("outer", 0.0, 10.0, -1, "op#0"),
            Span("a", 2.0, 5.0, 0, "op#0"),
            Span("a.inner", 3.0, 4.0, 1, "op#0"),
            Span("b", 6.0, 9.0, 0, "op#0"),
        ]
        self.assertEqual(self_times(spans), [4.0, 2.0, 1.0, 3.0])

    def test_overlapping_children_count_once(self):
        spans = [
            Span("outer", 0.0, 10.0, -1, "op#0"),
            Span("a", 1.0, 6.0, 0, "op#0"),
            Span("b", 4.0, 12.0, 0, "op#0"),  # overlaps a and outlives outer
        ]
        self.assertEqual(self_times(spans)[0], 1.0)

    def test_wrapped_calls_nest_and_count(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        tracer.op = "op#0"

        def inner():
            clock.step(2.0)

        traced_inner = tracer.wrap("m.inner", inner)

        def outer(n):
            clock.step(1.0)
            for _ in range(n):
                traced_inner()
            return n

        traced_outer = tracer.wrap(
            lambda args: f"m.outer{args['n']}", outer,
            after=lambda t, result, args: t.add("m.calls", result),
        )
        self.assertEqual(traced_outer(3), 3)
        self.assertEqual([s.name for s in tracer.spans], ["m.outer3"] + ["m.inner"] * 3)
        self.assertEqual([s.parent for s in tracer.spans], [-1, 0, 0, 0])
        self.assertEqual(self_times(tracer.spans), [1.0, 2.0, 2.0, 2.0])
        self.assertEqual(tracer.counts, {(False, "m.calls"): 3})

    def test_per_layer_divides_setup_and_operations_apart(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        build = tracer.wrap("imaging.build_reconstructor", lambda: clock.step(4.0))
        update = tracer.wrap("tracking.update", lambda: clock.step(0.5))
        for k in range(2):
            tracer.op = f"setup#{k}"
            build()
        for i in range(4):
            tracer.op = f"op#{i}"
            update()
        out = per_layer_metrics(tracer, setups=2, traced_ms=[2.0] * 4, untraced_ms=[1.0] * 4)
        self.assertEqual(list(out), list(PER_LAYER))
        self.assertEqual(out["imaging.build_reconstructor_s"], 4.0)
        self.assertEqual(out["tracking.update_s"], 0.5)
        self.assertEqual(out["tracking.self_s"], 0.5)
        self.assertEqual(out["tracking.updates"], 1.0)
        self.assertEqual(out["simulator.simulate_s"], 0.0)
        self.assertEqual((out["trace.overhead_ms"], out["trace.overhead_frac"]), (1.0, 1.0))

    def test_counter_that_cannot_be_read_warns(self):
        tracer = Tracer()
        traced = tracer.wrap("x.f", lambda: None, after=lambda t, r, a: r.missing)
        traced()
        self.assertIn("x.f", tracer.warnings)


class FailureCounting(unittest.TestCase):
    def test_exceptions_and_failed_checks_count_and_the_run_continues(self):
        outcomes = Outcomes()
        results = [
            outcomes.record("op#0", lambda: []),
            outcomes.record("op#1", lambda: ["bad output"]),
            outcomes.record("op#2", lambda: 1 / 0),
            outcomes.record("op#3", lambda: []),
        ]
        self.assertEqual(results, [True, False, False, True])
        self.assertEqual((outcomes.attempted, outcomes.failed), (4, 2))
        self.assertEqual(outcomes.failed_frac, 0.5)
        self.assertTrue(outcomes.first_failures[0].startswith("op#1: bad output"))
        self.assertIn("ZeroDivisionError", outcomes.first_failures[1])


class ComparisonSeeds(unittest.TestCase):
    def test_drawn_from_the_comparison_seeds_by_the_workload_seed(self):
        from workloads import NLOS_COMPARISON_SEEDS, comparison_seeds

        chosen = comparison_seeds(7, 3)
        self.assertEqual(chosen, comparison_seeds(7, 3))
        self.assertEqual(len(set(chosen)), 3)
        self.assertLessEqual(set(chosen), set(NLOS_COMPARISON_SEEDS))
        self.assertNotEqual(
            {tuple(comparison_seeds(s, 3)) for s in range(5)}, {tuple(chosen)}
        )


class BenchmarkFile(unittest.TestCase):
    def test_per_layer_list_matches_the_code(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [(name, unit, better) for name, (unit, better) in PER_LAYER.items()],
        )

    def test_bounds(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 and math.isfinite(b) for b in bounds.values()))


if __name__ == "__main__":
    unittest.main()
