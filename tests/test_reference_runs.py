"""The committed reference runs (reference_runs.json) are reproduced: status,
exit code, row count and work counters exactly, the summary values at
relative 1e-6, and, with SAFEADP_REFERENCE_BYTES=1 in the environment, the
SHA-256 of the CSV and of the summary JSON too (bytes may differ across
NumPy releases, so they are checked only on request).

After a change that is meant to move these runs, `python
tests/reference_runs.py` rewrites the table; no run is ever dropped from it.

Every run on the single integrator (A = 0, B = I) also meets the
obstacle-free optimum V_q of `oracles.box_quadratic_value` on every row:
J(t) + V_q(x(t)) >= V_q(x0), since its input stays in the box and the
obstacle only adds constraints.
"""

import math
import os

import numpy as np
import pytest

import reference_runs
from reference_runs import VALUES, WORK, load, outcome

import safeadp as sa
from safeadp.oracles import box_quadratic_value

RUNS = load()
CHECK_BYTES = os.environ.get("SAFEADP_REFERENCE_BYTES") == "1"


def _scenario(run):
    return sa.build_scenario({**sa.DEFAULTS, **run["overrides"]})


def _on_the_single_integrator(run):
    system = _scenario(run).system
    return not system.A.any() and np.array_equal(system.B, np.eye(system.n))


SINGLE_INTEGRATOR = [run for run in RUNS if _on_the_single_integrator(run)]


def test_table_holds_the_fourteen_runs():
    assert len(RUNS) == 14
    assert len({run["name"] for run in RUNS}) == 14
    for run in RUNS:
        assert set(run["work"]) == set(WORK) and set(run["values"]) == set(VALUES)


@pytest.mark.parametrize("run", RUNS, ids=[run["name"] for run in RUNS])
def test_reference_run_is_reproduced(run):
    got = outcome(run["overrides"])
    for key in ("status", "exit_code", "rows", "work"):
        assert got[key] == run[key], key
    for key, want in run["values"].items():
        have = got["values"][key]
        # a non-finite value (the QP's j_native_total) is stored as null
        assert (have is None) == (want is None), key
        if want is not None:
            assert math.isclose(have, want, rel_tol=1e-6, abs_tol=0.0), (key, have, want)
    if CHECK_BYTES:
        assert got["csv_sha256"] == run["csv_sha256"]
        assert got["summary_sha256"] == run["summary_sha256"]


def test_ten_runs_are_on_the_single_integrator():
    assert len(SINGLE_INTEGRATOR) == 10


@pytest.mark.parametrize("run", SINGLE_INTEGRATOR, ids=[run["name"] for run in SINGLE_INTEGRATOR])
def test_cost_meets_the_obstacle_free_optimum(run):
    # a violation is a wrong cost integral or an input outside the box
    scn = _scenario(run)
    rec = sa.run_episode(scn)
    v0 = box_quadratic_value(scn.cost, scn.sim.x0)
    margin = rec.J + box_quadratic_value(scn.cost, rec.x) - v0
    assert margin.min() >= -1e-12 * v0, (int(margin.argmin()), margin.min(), v0)


def test_check_reports_the_gap_and_writes_nothing(monkeypatch, capsys):
    # --check prints each run's largest relative gap and its hash matches;
    # a run whose recorded total_J is off by 1e-3 and whose CSV hash is
    # stale reads as such, and the table file is not written
    run = dict(RUNS[0], values=dict(RUNS[0]["values"]), csv_sha256="0" * 64)
    run["values"]["total_J"] *= 1.001
    before = reference_runs.TABLE.read_bytes()
    monkeypatch.setattr(reference_runs, "load", lambda: [run])
    reference_runs.check()
    lines = capsys.readouterr().out.splitlines()
    assert reference_runs.TABLE.read_bytes() == before
    assert len(lines) == 2
    name, report = lines[0].split(": ", 1)
    assert name == run["name"]
    gap = float(report.split(",")[0].removeprefix("max rel gap "))
    assert gap == pytest.approx(1e-3 / 1.001, rel=1e-3)
    # the summary's bytes may differ across NumPy releases, so either reading
    assert "csv sha256 differ" in report
    assert report.endswith(("summary sha256 match", "summary sha256 differ"))
