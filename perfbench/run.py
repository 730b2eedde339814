"""Benchmark for safeadp: ADP episodes, QP-baseline episodes and the seed
sweep, each run in a fresh interpreter with its outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
src/ there. Set-up time is measured in SETUP_SAMPLES fresh interpreters
and reported as their median; the workload then runs in one more fresh
interpreter (perfbench/workload.py). End-to-end times are in reference
seconds, scaled by a host reference loop timed next to them
(perfbench/hostref.py); their wall-clock values go to standard error. The last line of standard output is
one JSON object: with --trace 0 it carries the end-to-end metrics, with
--trace 1 the per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("adp-episodes", "qp-episodes", "adp-sweep")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0


def child_env():
    """One process per load, no more threads than cores: BLAS runs on the
    calling thread only, and the sweep gets one worker per core."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["SAFEADP_THREADS"] = str(len(os.sched_getaffinity(0)))
    env.pop("PYTHONPATH", None)
    return env


def _run(cmd, deadline):
    return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=child_env(),
                          timeout=max(1.0, deadline - time.monotonic()))


def _importtime_s(stderr, module):
    """Cumulative import time of `module` from `python -X importtime`."""
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$", line)
        if m and m.group(2) == module:
            return int(m.group(1)) * 1e-6
    raise RuntimeError(f"no import time line for {module}")


def _probe(args, deadline):
    p = _run([sys.executable] + args, deadline)
    if p.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{p.stderr[-2000:]}")
    return p, [float(v) for v in p.stdout.split()]


def measure_setup(trace, samples, deadline):
    """Median set-up figures over fresh interpreters, after one warm-up
    start that leaves byte code and file cache as a user's second run has.
    Untraced, each start of the program is paired with a start of the
    import reference, and set-up is given in reference seconds."""
    probe = str(HERE / "setup_probe.py")
    cmd = (["-X", "importtime"] if trace else []) + [probe, str(SRC)]
    figures = []
    for i in range(samples + 1):
        ref_s = None if trace else _probe([probe, "--reference"], deadline)[1][0]
        p, (import_s, build_s) = _probe(cmd, deadline)
        if i == 0:
            continue
        row = {"setup_wall_s": import_s + build_s, "config.build_scenario_s": build_s}
        if ref_s is not None:
            row["setup_s"] = hostref.to_ref(import_s + build_s, ref_s, hostref.REF_IMPORT_S)
        if trace:
            row["setup.import_s"] = _importtime_s(p.stderr, "safeadp")
            row["setup.import_qpsolve_s"] = _importtime_s(p.stderr, "safeadp.qpsolve")
        figures.append(row)
    return {k: statistics.median(r[k] for r in figures) for k in figures[0]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="one set-up sample and the shortest rounds; for the benchmark's tests")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (SRC / "safeadp" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'safeadp'}; run from a source checkout",
              file=sys.stderr)
        return 2

    out = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        setup = measure_setup(args.trace, 1 if args.smoke else SETUP_SAMPLES, deadline)
        cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out)]
        p = _run(cmd + (["--smoke"] if args.smoke else []), deadline)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        print(f"perfbench: workload process exited with {p.returncode}", file=sys.stderr)
        return 1
    res = json.loads(lines[-1])

    if args.trace:
        metrics = {k: {"value": v, "unit": "s"} for k, v in setup.items()
                   if k not in ("setup_s", "setup_wall_s")}
        metrics.update(res["metrics"])
    else:
        metrics = {
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "episode_s": {"value": res["episode_s"], "unit": "s"},
            "episodes_per_s": {"value": res["episodes_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(f"perfbench: {args.workload} seed {args.seed}: {res['rounds']} rounds, "
          f"{res['attempted']} episodes, {res['failed']} failed", file=sys.stderr)
    if not args.trace:
        print(f"perfbench: wall clock: setup {setup['setup_wall_s']:.4f} s, episode "
              f"{res['episode_wall_s']:.4f} s, {res['episodes_per_wall_s']:.4f} episodes/s; "
              f"reference loop {res['ref_loop_s']:.5f} s (REF_S {hostref.REF_S})", file=sys.stderr)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
