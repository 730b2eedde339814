"""Tests of the benchmark itself: every correctness check rejects a
deliberately corrupted output, the tracer's counts repeat exactly, the
host reference sampled inside QP episodes leaves their output alone, and
a smoke run takes every workload end to end, traced and untraced.

    python3 perfbench/selftest.py          # about a minute on 2 cores
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402
from workload import cli, sa  # noqa: E402

SCRATCH = HERE / "out" / f"selftest-{os.getpid()}"


def setUpModule():
    SCRATCH.mkdir(parents=True, exist_ok=True)


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)


def _episode(name, x0, **extra):
    values = workload._values(x0, **extra)
    rec = sa.run_episode(sa.build_scenario(values))
    path = SCRATCH / f"{name}.csv"
    cli.write_csv(rec, path)
    return rec, path, checks.Problem.from_values(values)


def _edit_csv(path, row, col, scale, edited=None):
    """Copy of the CSV (or the CSV itself) with one value multiplied by scale."""
    lines = path.read_text().split("\n")
    fields = lines[row + 1].split(",")
    fields[col] = repr(float(fields[col]) * scale)
    lines[row + 1] = ",".join(fields)
    edited = edited or path.with_name("edited_" + path.name)
    edited.write_text("\n".join(lines))
    return edited


class AdpChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.x0 = workload.ADP_STATES[0]
        cls.rec, cls.path, cls.prob = _episode("adp", cls.x0, seed=3)
        cls.rows = checks.rows_from_csv(cls.path)

    def test_correct_output_passes(self):
        self.assertEqual(checks.readback_errors(self.rec, self.path), [])
        self.assertEqual(checks.adp_errors(self.rows, self.x0, self.prob), [])

    def test_sign_flipped_u_is_rejected(self):
        rows = copy.deepcopy(self.rows)
        rows.u = -rows.u
        errors = checks.adp_errors(rows, self.x0, self.prob)
        self.assertTrue(any("increments" in e for e in errors), errors)
        rec = copy.deepcopy(self.rec)
        rec.u = -rec.u
        self.assertTrue(checks.readback_errors(rec, self.path))

    def test_edited_csv_value_is_rejected(self):
        edited = _edit_csv(self.path, 1200, 1, 1 + 1e-12)
        self.assertTrue(checks.readback_errors(self.rec, edited))
        edited = _edit_csv(self.path, 2500, 17, 1.001)
        self.assertTrue(any("quadrature" in e for e in
                            checks.adp_errors(checks.rows_from_csv(edited), self.x0, self.prob)))

    def test_run_that_does_not_converge_is_rejected(self):
        # from the collinear state [3, 3] with gains.seed 0 the state drifts away
        rec, path, prob = _episode("adp_collinear", [3.0, 3.0], seed=0)
        errors = checks.adp_errors(checks.rows_from_csv(path), [3.0, 3.0], prob)
        self.assertTrue(any("terminal" in e for e in errors), errors)


class QpChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.x0 = workload.QP_STATES[0]
        cls.rec, cls.path, cls.prob = _episode("qp", cls.x0, controller="qp",
                                               **{"sim.t_final": 2.0})
        cls.rows = checks.rows_from_csv(cls.path)
        cls.holds = [0, 7, 50, 120, 199]

    def test_correct_output_passes(self):
        self.assertEqual(checks.readback_errors(self.rec, self.path), [])
        self.assertEqual(checks.qp_errors(self.rows, self.x0, self.prob, self.holds), [])

    def test_perturbed_qp_input_is_rejected(self):
        rows = copy.deepcopy(self.rows)
        rows.x[50] += [1e-3, -1e-3]
        errors = checks.qp_errors(rows, self.x0, self.prob, self.holds)
        self.assertTrue(any("enumerated optimum" in e for e in errors), errors)

    def test_sign_flipped_u_is_rejected(self):
        rows = copy.deepcopy(self.rows)
        rows.u = -rows.u
        errors = checks.qp_errors(rows, self.x0, self.prob, self.holds)
        self.assertTrue(any("enumerated optimum" in e for e in errors), errors)
        self.assertTrue(any("increments" in e for e in errors), errors)

    def test_unsafe_run_is_rejected(self):
        # a 2 s hold carries the state into the obstacle; the status still reads OK
        rec, path, prob = _episode("qp_slow", self.x0, controller="qp", **{"qp.dt": 2.0})
        errors = checks.qp_errors(checks.rows_from_csv(path), self.x0, prob, [])
        self.assertTrue(any("min_h" in e for e in errors), errors)


class SweepCheck(unittest.TestCase):
    def test_sampled_csv_must_match_serial_run(self):
        out = SCRATCH / "sweep"
        out.mkdir()
        sweep = workload.Sweep(5, out, smoke=True)
        sweep.warm()
        rnd = sweep.run_round()
        self.assertEqual(rnd.failed, 0)
        self.assertEqual(sweep.check(rnd), [])
        path = out / "sweep0_000.csv"
        _edit_csv(path, 100, 1, 1 + 1e-12, edited=path)
        self.assertTrue(any("serial library run" in e for e in sweep.check(rnd)))


class Tracer(unittest.TestCase):
    def _traced_counts(self):
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            for values in (workload._values(workload.ADP_STATES[2], 7, **{"sim.t_final": 3.0}),
                           workload._values(workload.QP_STATES[1], controller="qp",
                                            **{"sim.t_final": 0.5})):
                sa.summarize(sa.run_episode(sa.build_scenario(values)))
        finally:
            tracer.restore()
        agg, counts = tracer.totals()
        return {k: v[0] for k, v in agg.items()}, dict(counts)

    def test_counts_repeat_and_originals_return(self):
        run_episode, bellman_at = sa.run_episode, sa.sim.bellman_at
        first, second = self._traced_counts(), self._traced_counts()
        self.assertEqual(first, second)
        self.assertGreater(first[1]["integrate.rhs_evals"], 0)
        self.assertEqual(first[0]["qpsolve.solve_qp"], 50)
        self.assertIs(sa.run_episode, run_episode)
        self.assertIs(sa.sim.bellman_at, bellman_at)

    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer()
        outer = tracer.call("outer", lambda: tracer.call("inner", sum, range(10 ** 6)))
        self.assertEqual(outer, sum(range(10 ** 6)))
        agg, _ = tracer.totals()
        self.assertAlmostEqual(agg["outer"][2], agg["outer"][1] - agg["inner"][1], places=12)
        self.assertEqual(tracer._states[0].spans[1][3], 0)  # inner's parent is outer


class HostReference(unittest.TestCase):
    def test_hold_sampler_samples_and_leaves_output_alone(self):
        values = workload._values(workload.QP_STATES[0], controller="qp", **{"sim.t_final": 2.0})
        controller = sa.sim.qp_controller
        plain = sa.run_episode(sa.build_scenario(values))
        sampler = workload.HoldSampler()
        sampler.install()
        try:
            sampled = sa.run_episode(sa.build_scenario(values))
        finally:
            sampler.restore()
        self.assertIs(sa.sim.qp_controller, controller)
        self.assertEqual(len(sampler.samples), 200 // sampler.EVERY)
        self.assertAlmostEqual(sampler.spent, sum(sampler.samples), places=12)
        np.testing.assert_array_equal(checks.record_matrix(sampled), checks.record_matrix(plain))


class Smoke(unittest.TestCase):
    """Every workload end to end through the benchmark command."""

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def _run(self, cwd, workload_name, trace):
        cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload_name,
               "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
        return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=180)

    def test_every_workload(self):
        for w in self.spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    p = self._run(HERE.parent, w["name"], trace)
                    self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                    res = json.loads(p.stdout.strip().splitlines()[-1])
                    self.assertEqual(sorted(res), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(res["correct"], p.stderr[-2000:])
                    self.assertEqual(res["failed"], 0)
                    self.assertEqual(sorted(res["metrics"]), sorted(m["name"] for m in self.spec[key]))
                    for m in self.spec[key]:
                        self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])

    def test_fails_without_the_program(self):
        bare = SCRATCH / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        p = self._run(bare, "adp-episodes", 0)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
