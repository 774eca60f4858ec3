"""Tests of the benchmark's own helpers.

Run from the repository root::

    python3 -m unittest perfbench.test_perfbench
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import os
import sys
import unittest
from unittest import mock
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import calibrate, layers, ops  # noqa: E402
from perfbench.stats import (  # noqa: E402
    InsufficientSamples, min_samples, percentile, samples_beyond,
    self_time,
)
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    OpRecord, cell_record, tier0_mismatches,
)


class PercentileRule(unittest.TestCase):
    def test_p90_needs_one_hundred_samples(self) -> None:
        self.assertEqual(min_samples(0.9), 100)
        self.assertEqual(samples_beyond(100, 0.9), 10)
        self.assertEqual(samples_beyond(99, 0.9), 9)

    def test_below_the_floor_raises(self) -> None:
        with self.assertRaises(InsufficientSamples):
            percentile(list(range(99)), 0.9)
        with self.assertRaises(InsufficientSamples):
            percentile([], 0.5)

    def test_interpolates_between_order_statistics(self) -> None:
        values = [float(v) for v in range(1, 101)]
        self.assertAlmostEqual(percentile(values, 0.5), 50.5)
        self.assertAlmostEqual(percentile(values, 0.9), 90.1)
        self.assertAlmostEqual(percentile(list(reversed(values)), 0.5), 50.5)

    def test_median_floor_is_twenty_samples(self) -> None:
        self.assertEqual(min_samples(0.5), 20)
        self.assertEqual(percentile([3.0] * 20, 0.5), 3.0)


class SelfTime(unittest.TestCase):
    def test_disjoint_children(self) -> None:
        self.assertAlmostEqual(self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]),
                               7.0)

    def test_overlapping_children_count_once(self) -> None:
        self.assertAlmostEqual(self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0)]),
                               5.0)

    def test_children_are_clipped_to_the_parent(self) -> None:
        self.assertAlmostEqual(
            self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0), (7.0, 8.0)]), 2.0)

    def test_tracer_charges_children_to_their_parent(self) -> None:
        ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
        tracer = Tracer(clock=lambda: next(ticks))
        outer = tracer.open("outer", op=7)
        child = tracer.open("child")               # 1.0 .. 3.0
        tracer.close(child)
        hot = tracer.open("hot", record=False)     # 4.0 .. 4.5
        tracer.close(hot)
        tracer.close(outer)                        # 0.0 .. 10.0
        self.assertAlmostEqual(tracer.self_total("outer"), 7.5)
        self.assertAlmostEqual(tracer.total("hot"), 0.5)
        selfs = tracer.span_self_times()
        by_name = {span.name: span for span in tracer.spans}
        self.assertAlmostEqual(selfs[by_name["outer"].span_id], 7.5)
        self.assertEqual(by_name["child"].parent, by_name["outer"].span_id)
        self.assertEqual(by_name["child"].op, 7)
        self.assertNotIn("hot", by_name)

    def test_a_group_does_not_nest(self) -> None:
        tracer = Tracer()
        inner = tracer.wrap(lambda: 1, "policy.x", record=False,
                            group="policy")
        outer = tracer.wrap(lambda: inner() + 1, "policy.x", record=False,
                            group="policy")
        self.assertEqual(outer(), 2)
        self.assertEqual(tracer.calls("policy.x"), 1)


class Calibration(unittest.TestCase):
    def test_an_op_on_a_slow_host_scales_back(self) -> None:
        record = OpRecord(0, 0.3, True, reference_s=3 * calibrate.NOMINAL_S)
        self.assertAlmostEqual(record.calibrated_s, 0.1)

    def test_references_are_window_medians(self) -> None:
        samples = [1.0] * 8 + [9.0] + [1.0] * 8 + [2.0] * 20
        references = calibrate.references(samples)
        self.assertEqual(len(references), len(samples) - 1)
        self.assertEqual(references[8], 1.0)  # a lone outlier is ignored
        self.assertEqual(references[-1], 2.0)  # a lasting change is not

    def test_sample_restores_the_affinity(self) -> None:
        cpus = os.sched_getaffinity(0)
        self.assertGreater(calibrate.sample(), 0.0)
        self.assertEqual(os.sched_getaffinity(0), cpus)


def _identities(stream, count: int) -> list:
    return [(op.index, op.spec.canonical(), op.repeat_of)
            for op in itertools.islice(stream, count)]


class SeedDeterminism(unittest.TestCase):
    def test_same_seed_same_op_list(self) -> None:
        for make in (ops.sweep_ops, ops.serve_ops):
            self.assertEqual(_identities(make(5), 60),
                             _identities(make(5), 60))
        self.assertEqual([c.canonical() for c in ops.grid_pass(5)],
                         [c.canonical() for c in ops.grid_pass(5)])

    def test_other_seed_other_inputs(self) -> None:
        for make in (ops.sweep_ops, ops.serve_ops):
            self.assertNotEqual(_identities(make(5), 30),
                                _identities(make(6), 30))
        self.assertNotEqual(ops.grid_pass(5)[0].seed, ops.grid_pass(6)[0].seed)

    def test_grid_pass_is_the_full_paper_grid(self) -> None:
        cells = ops.grid_pass(1)
        self.assertEqual(len(cells), 6 * 23 * 2)
        self.assertEqual(len({c.canonical() for c in cells}), len(cells))

    def test_a_serve_round_holds_each_pair_once(self) -> None:
        fresh = [op.spec for op in itertools.islice(ops.serve_ops(4),
                                                    ops.SERVE_WINDOW)
                 if op.repeat_of is None]
        pairs = {(spec.workload, spec.policy) for spec in fresh}
        self.assertEqual(len(fresh), len(pairs))
        self.assertEqual(len(pairs), 23 * len(ops.PAPER_POLICIES))

    def test_windows_support_a_p90(self) -> None:
        for window in (ops.SWEEP_WINDOW, ops.SERVE_WINDOW):
            self.assertGreaterEqual(window, min_samples(0.9))

    def test_a_third_of_ops_repeat(self) -> None:
        for make in (ops.sweep_ops, ops.serve_ops):
            taken = list(itertools.islice(make(3), 300))
            repeats = [op for op in taken if op.repeat_of is not None]
            self.assertEqual(len(repeats), 100)
            for op in repeats:
                self.assertLess(op.repeat_of, op.index)
                self.assertEqual(op.spec, taken[op.repeat_of].spec)


class CorrectnessGate(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        from repro.experiments.runner import run_spec

        # No disk memo: traces are built in memory only.
        cls.env = mock.patch.dict(os.environ, {"REPRO_CACHE": "0"})
        cls.env.start()
        spec = dataclasses.replace(ops.grid_pass(2)[0], workload="STN",
                                   policy="hpe")
        cls.cell = cell_record(spec, run_spec(spec, use_cache=False))

    @classmethod
    def tearDownClass(cls) -> None:
        cls.env.stop()

    def test_true_results_pass(self) -> None:
        self.assertEqual(tier0_mismatches([self.cell], 1, "test"), [])

    def test_a_perturbed_result_is_caught(self) -> None:
        metrics = copy.deepcopy(self.cell.metrics)
        metrics["driver"]["evictions"] += 1
        perturbed = dataclasses.replace(self.cell, metrics=metrics)
        problems = tier0_mismatches([perturbed], 1, "test")
        self.assertEqual(len(problems), 1)
        self.assertIn("differ from tier 0", problems[0])


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_what_the_run_prints(self) -> None:
        contract = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in contract["end_to_end"]},
            layers.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in contract["per_layer"]},
            {name: layers.unit_of(name) for name in layers.PER_LAYER})
        self.assertEqual([w["name"] for w in contract["workloads"]],
                         ["grid-cells", "seed-sweep", "serve-mix"])


if __name__ == "__main__":
    unittest.main()
