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

    python tests/reference_runs.py --check

runs every entry again and prints, per run, the largest relative gap of
its five summary values from the table's and whether its CSV and summary
SHA-256 match. It never writes the table and exits 0 whatever the gaps
are: it reports how far a NumPy release is from the table, and the
reference-run tests are the gate.
"""

from __future__ import annotations

import argparse
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


def _gap(have, want):
    """The relative gap of a summary value from the table's; a value that
    is null (non-finite) on one side only is an infinite gap."""
    if have is None or want is None:
        return 0.0 if have is want else float("inf")
    return abs(have - want) / abs(want) if want else abs(have)


def check():
    """Print each run's largest relative summary-value gap and its hash
    matches, then the largest gap over all runs; the table is not written."""
    runs, worst = load(), 0.0
    for run in runs:
        got = outcome(run["overrides"])
        gap = max(_gap(got["values"][key], want) for key, want in run["values"].items())
        worst = max(worst, gap)
        same = {key: "match" if got[key] == run[key] else "differ"
                for key in ("csv_sha256", "summary_sha256")}
        print(f"{run['name']}: max rel gap {gap:.3e}, csv sha256 {same['csv_sha256']}, "
              f"summary sha256 {same['summary_sha256']}")
    print(f"largest rel gap over {len(runs)} runs: {worst:.3e}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite, or with --check compare against, "
                                     "the reference-run table.")
    parser.add_argument("--check", action="store_true",
                        help="print each run's gap from the table; write nothing")
    if parser.parse_args().check:
        check()
    else:
        for run in rewrite():
            print(f"{run['name']}: {run['status']}, {run['rows']} rows")
