"""The reference runs: fixed episodes whose outcome is recorded in
reference_runs.json and checked by test_reference_runs.py.

Each entry of the table names a run by its config overrides (dotted keys
over DEFAULTS) and records what the run gave: status, exit code, row count
and work counters (compared exactly), five summary values (compared at
relative 1e-6) and the SHA-256 of its CSV and of its summary JSON with
wall_clock_s set to 0 (compared only on request, since the bytes may differ
across NumPy releases).

    python tests/reference_runs.py

runs every entry again and rewrites the recorded outcomes in place; the
list of runs and their overrides are kept as they are.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("reference_runs.json")
sys.path.insert(0, str(ROOT / "src"))

import safeadp as sa  # noqa: E402
from safeadp import cli  # noqa: E402

WORK = ("rhs_evals", "accepted_steps", "rejected_steps", "qp_iterations", "qp_cold_solves")
VALUES = ("total_J", "min_h", "terminal_x_norm", "max_u_inf", "j_native_total")


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def outcome(overrides):
    """Run the episode of `overrides` and return what the table records."""
    record = sa.run_episode(sa.build_scenario({**sa.DEFAULTS, **overrides}))
    summary = sa.summarize(record).as_dict()
    with tempfile.TemporaryDirectory() as tmp:
        csv, js = Path(tmp, "run.csv"), Path(tmp, "summary.json")
        cli.write_csv(record, csv)
        cli.write_summary({**summary, "wall_clock_s": 0.0}, js)
        hashes = {"csv_sha256": _sha256(csv), "summary_sha256": _sha256(js)}
    return {"status": record.status, "exit_code": cli._STATUS_EXIT[record.status],
            "rows": len(record.t), "work": {key: getattr(record, key) for key in WORK},
            "values": cli._finite_or_null({key: summary[key] for key in VALUES}), **hashes}


def load():
    return json.loads(TABLE.read_text(encoding="utf-8"))


def rewrite():
    runs = [{"name": run["name"], "overrides": run["overrides"], **outcome(run["overrides"])}
            for run in load()]
    TABLE.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    return runs


if __name__ == "__main__":
    for run in rewrite():
        print(f"{run['name']}: {run['status']}, {run['rows']} rows")
