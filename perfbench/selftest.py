#!/usr/bin/env python3
"""Self-tests of the benchmark: statistics, seeded inputs, the output checks
against planted faults, the per-op time limit and the tracer.

Run from the root of a checkout:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from semitoric import cartography, height, numerics  # noqa: E402
import tracing  # noqa: E402
from tracing import Tracer  # noqa: E402


def first_inputs(name, seed, n):
    gen = workloads.WORKLOADS[name].inputs(np.random.default_rng(seed))
    return [next(gen) for _ in range(n)]


class StatisticsTest(unittest.TestCase):
    def test_percentiles_on_fixed_samples(self):
        xs = [float(v) for v in range(1, 101)]          # 1 .. 100
        self.assertAlmostEqual(run.percentile(xs, 50), 50.5)
        self.assertAlmostEqual(run.percentile(xs, 95), 95.05)
        self.assertEqual(run.percentile(xs, 0), 1.0)
        self.assertEqual(run.percentile(xs, 100), 100.0)
        self.assertEqual(run.percentile([3.0, 1.0, 2.0], 50), 2.0)
        self.assertEqual(run.percentile([7.0], 95), 7.0)
        self.assertEqual(run.samples_beyond(xs, 95), 5)
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_percentile_matches_numpy_linear(self):
        xs = list(np.random.default_rng(3).exponential(size=257))
        for q in (5, 50, 95, 99):
            self.assertAlmostEqual(run.percentile(xs, q),
                                   float(np.percentile(xs, q)), places=12)

    def test_throughput(self):
        self.assertEqual(run.throughput(200, 4.0), 50.0)
        self.assertEqual(run.throughput(0, 1.0), 0.0)
        with self.assertRaises(ValueError):
            run.throughput(1, 0.0)

    def test_speed_scale_uses_nearby_kernel_times(self):
        probe = run.SpeedProbe()
        # Kernel at 1 ms for t < 50 s, then at 2 ms: the host halved speed.
        for t in range(100):
            probe.at.append(float(t))
            probe.took.append(1e-3 if t < 50 else 2e-3)
        f = probe.scale([0.0, 20.5, 80.5, 99.0, 500.0]) / run.REF_NOMINAL_S
        self.assertEqual(f.tolist(), [1e3, 1e3, 500.0, 500.0, 500.0])
        probe.sample()
        self.assertEqual(len(probe.took), 101)
        self.assertTrue(probe.scale([probe.at[-1]])[0] > 0)


class SeededInputsTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in run.WORKLOAD_NAMES:
            a = first_inputs(name, 11, 24)
            self.assertEqual(a, first_inputs(name, 11, 24), name)
            self.assertNotEqual(a, first_inputs(name, 12, 24), name)

    def test_sweep_mix_per_block_of_four(self):
        inputs = first_inputs("sweep", 5, 40)
        for k in range(0, 40, 4):
            block = inputs[k:k + 4]
            self.assertEqual(sum(i.parallel for i in block), 1)
            self.assertEqual(sorted(i.quantity for i in block),
                             ["E", "height", "height", "nff"])

    def test_domain(self):
        for inp in first_inputs("chart", 2, 200):
            p = inp.params
            self.assertTrue(1 / 8 <= p.R <= 8 and p.r1 == 1.0)
            self.assertTrue(0 <= p.s1 <= 1 and 0 <= p.s2 <= 1)
        for inp in first_inputs("oracle", 2, 50):
            self.assertLess(workloads.singularity.discriminant_E(inp.params),
                            0.0)

    def test_known_defect_zones_are_left_out(self):
        # Inputs on which the package failed when the benchmark was added.
        P = workloads.ModelParams
        for p in (P(1.0, 1.5453223269663927, 0.5034378390794295,
                    0.6067240284823024),    # discrepancy 3.4e-6
                  P(1.0, 0.2038969734133906, 0.5002865722835051,
                    0.16930580296329945),   # BranchSelectionError
                  P(1.0, 5.536455289746141, 0.20372288490504997,
                    0.14741965041001193)):  # AssertionError in the oracle
            self.assertTrue(workloads.height_defect_zone(p), p)
        self.assertFalse(workloads.toric_node_ok(
            P(1.0, 3.787787062180371, 0.1005520736579415,
              0.2373229032453258)))  # DegenerateSystemError
        for inp in first_inputs("oracle", 3, 300):
            self.assertFalse(workloads.height_defect_zone(inp.params))
        for inp in first_inputs("chart", 3, 300):
            self.assertTrue(not inp.toric or
                            workloads.toric_node_ok(inp.params))
        for inp in first_inputs("sweep", 3, 40):
            self.assertTrue(inp.quantity != "height" or
                            not workloads.grid_near_case_iii(
                                inp.R, inp.s1_window, inp.s2_window))


class PlantedFaultTest(unittest.TestCase):
    def setUp(self):
        self.work = run.RESULTS_DIR / "selftest-work"
        self.work.mkdir(parents=True, exist_ok=True)

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    @staticmethod
    def failing(results):
        return {k for k, v in results.items() if v is not None}

    def test_oracle_checks(self):
        inp = first_inputs("oracle", 1, 1)[0]
        inv, r_ns, r_sn = workloads.oracle_op(inp, None)
        self.assertEqual(self.failing(workloads.oracle_checks(
            inp, (inv, r_ns, r_sn), None)), set())
        shifted = dataclasses.replace(inv, h1=inv.h1 + 1e-5)
        self.assertIn("oracle.heights_sum_to_two", self.failing(
            workloads.oracle_checks(inp, (shifted, r_ns, r_sn), None)))

    def test_oracle_discrepancy_check(self):
        inp = first_inputs("oracle", 1, 1)[0]
        orig = height.height_oracle
        height.height_oracle = lambda *a, **k: orig(*a, **k) + 1e-5
        try:
            out = workloads.oracle_op(inp, None)
        finally:
            height.height_oracle = orig
        self.assertEqual(self.failing(workloads.oracle_checks(inp, out, None)),
                         {"oracle.discrepancy"})

    def test_sweep_checks(self):
        inp = next(i for i in first_inputs("sweep", 4, 8)
                   if i.quantity == "E")
        inp = dataclasses.replace(inp, parallel=True)
        ctx = workloads.make_context("sweep", str(self.work))
        paths = workloads.sweep_op(inp, ctx)
        self.assertEqual(self.failing(workloads.sweep_checks(inp, paths, ctx)),
                         set())
        serial, parallel = (Path(p) for p in paths)
        lines = serial.read_bytes().split(b"\n")

        def planted(new_lines, target=serial):
            target.write_bytes(b"\n".join(new_lines))
            return self.failing(workloads.sweep_checks(inp, paths, ctx))

        # One byte changed in the value of a sampled cell.
        row = 1 + inp.cells[0]
        s1, s2, e, flag = lines[row].split(b",")
        e = e[:-1] + (b"1" if e[-1:] != b"1" else b"2")
        bad = list(lines)
        bad[row] = b",".join((s1, s2, e, flag))
        self.assertEqual(planted(bad), {"sweep.cells",
                                        "sweep.parallel_matches_serial"})

        # One byte changed in the s2 column of an unsampled row.
        row = 1 + next(k for k in range(41 * 41) if k not in inp.cells)
        bad = list(lines)
        bad[row] = bad[row].replace(b",", b";", 1)
        self.assertIn("sweep.rows", planted(bad))

        # A dropped row.
        self.assertIn("sweep.rows", planted(lines[:5] + lines[6:]))

        # One byte changed in the --parallel output only.
        serial.write_bytes(b"\n".join(lines))
        self.assertEqual(planted(bad, target=parallel),
                         {"sweep.parallel_matches_serial"})

    def test_chart_checks(self):
        inp = next(i for i in first_inputs("chart", 1, 20) if not i.toric)
        ib, polys, verdict, reports = workloads.chart_op(inp, None)
        self.assertEqual(self.failing(workloads.chart_checks(
            inp, (ib, polys, verdict, reports), None)), set())

        p = polys[1]
        verts = list(p.vertices)
        verts[1] = (verts[1][0], verts[1][1] + 1e-3)
        moved = cartography.Polygon(tuple(verts), p.cuts, p.ff_l, p.bottom,
                                    p.top)
        out = (ib, [polys[0], moved] + polys[2:], verdict, reports)
        self.assertEqual(self.failing(workloads.chart_checks(inp, out, None)),
                         {"chart.polygon_width"})

        corners = list(ib.corner_values)
        corners[0] = (corners[0][0], corners[0][1] + 1.0)
        out = (dataclasses.replace(ib, corner_values=tuple(corners)), polys,
               verdict, reports)
        self.assertEqual(self.failing(workloads.chart_checks(inp, out, None)),
                         {"chart.corners_in_envelope"})


class TimeLimitTest(unittest.TestCase):
    def test_hanging_op_becomes_failure(self):
        saved_limit = run.OP_TIME_LIMIT_S
        saved_handler = run.signal.signal(run.signal.SIGALRM, run._on_alarm)
        run.OP_TIME_LIMIT_S = 0.05
        try:
            t0 = time.perf_counter()
            dt, out, err = run.limited_call(time.sleep, 2.0)
            self.assertLess(time.perf_counter() - t0, 1.0)
            self.assertIsNone(out)
            self.assertIn("timed out", err)
            dt, out, err = run.limited_call(lambda: 7)
            self.assertEqual((out, err), (7, None))
            dt, out, err = run.limited_call(lambda: 1 / 0)
            self.assertIn("ZeroDivisionError", err)
        finally:
            run.OP_TIME_LIMIT_S = saved_limit
            run.signal.signal(run.signal.SIGALRM, saved_handler)


class TracerTest(unittest.TestCase):
    def traced(self, name, n=2):
        wl = workloads.WORKLOADS[name]
        tracer = Tracer()
        op = tracer.wrap(f"op.{name}", wl.op)
        for i, inp in enumerate(first_inputs(name, 9, n)):
            tracer.op_id = i
            tracer.install()
            try:
                op(inp, None)
            finally:
                tracer.uninstall()
        return tracer

    def test_self_times_partition_the_op(self):
        tracer = self.traced("chart")
        calls, self_s = tracer.totals()
        # Every frame below the op root moves its wrapper cost out of the
        # self times.
        kinds = dict(tracing.TARGETS)
        kinds.update((k + ".f_calls", "callback")
                     for k in tracing.CALLBACK_KERNELS)
        cost = sum(n * tracer.wrapper_cost_s[kinds[k]]
                   for k, n in calls.items() if k in kinds)
        spans = np.load(self._spans(tracer))
        root = spans["name"] == list(spans["names"]).index("op.chart")
        root_s = float(np.sum(spans["end"][root] - spans["start"][root]))
        self.assertAlmostEqual(sum(self_s.values()) + cost, root_s, places=9)
        self.assertEqual(calls["numerics.minimize_golden"] % 2, 0)
        self.assertNotIn("numerics.integrate", calls)

    def _spans(self, tracer):
        run.RESULTS_DIR.mkdir(exist_ok=True)
        path = run.RESULTS_DIR / "selftest-spans.npz"
        tracer.write(path)
        self.addCleanup(path.unlink)
        return path

    def test_oracle_counts_and_restored_bindings(self):
        before = (height.integrate, numerics.quartic_roots,
                  cartography.minimize_golden)
        tracer = self.traced("oracle")
        calls, _ = tracer.totals()
        self.assertEqual(calls["height.height_oracle"], 4)
        self.assertGreater(calls["numerics.integrate.f_calls"], 0)
        self.assertNotIn("numerics.minimize_golden", calls)
        self.assertEqual((height.integrate, numerics.quartic_roots,
                          cartography.minimize_golden), before)


class BenchmarkSpecTest(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOAD_NAMES))


if __name__ == "__main__":
    unittest.main()
