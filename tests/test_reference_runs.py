"""The committed reference runs (reference_runs.json) are reproduced: status,
exit code, row count and work counters exactly, the summary values at
relative 1e-6, and, with SAFEADP_REFERENCE_BYTES=1 in the environment, the
SHA-256 of the CSV and of the summary JSON too (bytes may differ across
NumPy releases, so they are checked only on request).

After a change that is meant to move these runs, `python
tests/reference_runs.py` rewrites the table; no run is ever dropped from it.
"""

import math
import os

import pytest

from reference_runs import VALUES, WORK, load, outcome

RUNS = load()
CHECK_BYTES = os.environ.get("SAFEADP_REFERENCE_BYTES") == "1"


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
