"""Command-line front end: run episodes, compare controllers, sweep a
config key, and execute the oracle self-tests. Outputs are CSV files and
JSON summaries for offline inspection."""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import DEFAULTS, _parse_value, build_scenario, parse_config
from .errors import ConfigError
from .sim import TrajectoryRecord, run_episode, summarize

EXIT_OK = 0
EXIT_SAFETY_BREACH = 2
EXIT_QP_INFEASIBLE = 3
EXIT_CONFIG_ERROR = 4
EXIT_NUMERICAL_FAILURE = 5

_STATUS_EXIT = {
    "OK": EXIT_OK,
    "SAFETY_BREACH": EXIT_SAFETY_BREACH,
    "QP_INFEASIBLE": EXIT_QP_INFEASIBLE,
    "STEP_UNDERFLOW": EXIT_NUMERICAL_FAILURE,
    "GAIN_INDEFINITE": EXIT_NUMERICAL_FAILURE,
    "QP_SOLVER_FAILED": EXIT_NUMERICAL_FAILURE,
}


def write_csv(record: TrajectoryRecord, path):
    """CSV rows at dt_out with 17-significant-digit values and LF endings."""
    def numbered(name, block):
        return [(f"{name}{i + 1}", col) for i, col in enumerate(block.T)]

    # the columns in file order, each named once
    columns = ([("t", record.t)] + numbered("x", record.x) + numbered("u", record.u)
               + [("h", record.h), ("B", record.B), ("Vhat", record.Vhat), ("delta", record.delta)]
               + numbered("Wc", record.Wc) + numbered("Wa", record.Wa)
               + [("minEigGamma", record.min_eig_gamma), ("c1", record.c1), ("J", record.J)])
    names, cols = zip(*columns)
    table = np.column_stack(cols).tolist()
    row_fmt = ",".join(["%.17g"] * len(cols)) + ",%s\n"
    statuses = ["OK"] * (len(table) - 1) + [record.status]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names + ("status",)) + "\n")
        fh.writelines(row_fmt % (*row, st) for row, st in zip(table, statuses))


def panel_paths(stem):
    """The panel files of `write_panels`: state norm, barrier value, input magnitude."""
    return [f"{stem}_panel_{name}.dat" for name in ("xnorm", "h", "uinf")]


def write_panels(record: TrajectoryRecord, stem):
    """Two-column plot-ready files at `panel_paths(stem)`."""
    table = np.column_stack((record.t, np.linalg.norm(record.x, axis=1), record.h,
                             np.max(np.abs(record.u), axis=1))).tolist()
    for k, path in enumerate(panel_paths(stem), start=1):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines("%.17g %.17g\n" % (row[0], row[k]) for row in table)


def _finite_or_null(obj):
    """obj, and each value of its nested dicts, with a non-finite float as None."""
    if isinstance(obj, dict):
        return {key: _finite_or_null(val) for key, val in obj.items()}
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def write_summary(summary_dict, path):
    """Strict JSON: a non-finite number (the QP's j_native_total) is null."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_finite_or_null(summary_dict), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _load_values(args):
    values = parse_config(args.config) if args.config else dict(DEFAULTS)
    if args.controller:
        values["sim.controller"] = args.controller
    if args.seed is not None:
        values["gains.seed"] = args.seed
    if args.t_final is not None:
        values["sim.t_final"] = args.t_final
    return values


def _check_outputs(*paths):
    """Raise OSError for an output path that cannot be written: its
    directory is missing or read-only, the path is a directory, or it is
    the file of another output. Called before the first episode, so that
    a bad path costs no run and leaves no partial output."""
    seen = {}
    for path in filter(None, paths):
        real = os.path.realpath(path)
        if real in seen:
            raise OSError(f"{seen[real]} and {path} are the same file")
        seen[real] = path
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), parent)
        if not os.access(parent, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), parent)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _run_episodes(episodes, *joint_outputs):
    """Run each episode, a tuple (label, scenario, CSV path, panel stem or
    None, summary path or None, extra summary keys), and write its files,
    every output path checked before the first episode runs. Prints one line
    per episode; returns the summaries and the largest exit code."""
    _check_outputs(*(path for _, _, csv, stem, summary_path, _ in episodes
                     for path in (csv, *(panel_paths(stem) if stem else ()), summary_path)),
                   *joint_outputs)
    summaries = []
    for _, scn, csv, stem, summary_path, extra in episodes:
        record = run_episode(scn)
        summaries.append(summarize(record))
        write_csv(record, csv)
        if stem:
            write_panels(record, stem)
        if summary_path:
            write_summary({**summaries[-1].as_dict(), **extra}, summary_path)
    for (label, *_), s in zip(episodes, summaries):
        print(f"{label}: status={s.status} min_h={s.min_h:.6g} "
              f"terminal_x={s.terminal_x_norm:.6g} J={s.total_J:.6g}")
    return summaries, max(_STATUS_EXIT[s.status] for s in summaries)


def cmd_run(args):
    scn = build_scenario(_load_values(args))
    return _run_episodes([(scn.sim.controller, scn, args.out, None, args.summary, {})])[1]


def cmd_compare(args):
    values = _load_values(args)
    stem = Path(args.out).with_suffix("")
    summary_path = args.summary or f"{stem}_summary.json"
    (adp, qp), code = _run_episodes(
        [(ctrl, build_scenario(values, sim__controller=ctrl), f"{stem}_{ctrl}.csv",
          f"{stem}_{ctrl}", None, {}) for ctrl in ("adp", "qp")], summary_path)
    write_summary({"adp": adp.as_dict(), "qp": qp.as_dict(),
                   "adp_converges_better": adp.terminal_x_norm < qp.terminal_x_norm}, summary_path)
    return code


def cmd_sweep(args):
    values = _load_values(args)
    if args.sweep_key not in DEFAULTS:
        raise ConfigError(f"unknown sweep key {args.sweep_key!r}")
    sweep_values = [_parse_value(tok.strip(), args.sweep_key, "--sweep-values", i)
                    for i, tok in enumerate(args.sweep_values.split(";"), start=1)]
    # every value's scenario is built before the first episode runs, so a
    # value a component rejects ends the sweep before it writes anything
    scenarios = []
    for i, val in enumerate(sweep_values, start=1):
        try:
            scenarios.append(build_scenario({**values, args.sweep_key: val}))
        except ConfigError as exc:
            # an error the file and flags raise alone is theirs, reported as `run` would
            try:
                build_scenario(values)
            except ConfigError as base:
                if str(base) == str(exc):
                    raise base from None
            raise ConfigError(f"--sweep-values:{i}: {exc}") from None
    stem = Path(args.out).with_suffix("")
    return _run_episodes([(f"{args.sweep_key}={val}", scn, f"{stem}_{i:03d}.csv", None,
                           f"{stem}_{i:03d}_summary.json",
                           {"sweep_key": args.sweep_key, "sweep_value": val})
                          for i, (val, scn) in enumerate(zip(sweep_values, scenarios))])[1]


def cmd_selftest(_args):
    from .oracles import run_selftest  # imported here: only selftest runs the oracles
    results = run_selftest()
    for name, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return EXIT_OK if all(ok for _, ok, _ in results) else 1


def _path(text):
    """A file path (an output, or the config file): an empty one is a
    usage error."""
    if not text:
        raise argparse.ArgumentTypeError("an empty path names no file")
    return text


def build_parser():
    parser = argparse.ArgumentParser(prog="safeadp",
                                     description="Barrier-embedded safe optimal control runner")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=_path, help="config file (flat dotted keys)")
        p.add_argument("--seed", type=int, help="RNG seed (overrides gains.seed)")
        p.add_argument("--t-final", dest="t_final", type=float, help="episode length in seconds")
        p.add_argument("--out", type=_path, help="output CSV path / stem")
        return p

    p_run = common(sub.add_parser("run", help="run one episode"))
    p_run.set_defaults(func=cmd_run, out="traj.csv")

    p_cmp = common(sub.add_parser("compare", help="run both controllers with shared geometry/seed"))
    p_cmp.set_defaults(func=cmd_compare, out="compare.csv", controller=None)

    p_sw = common(sub.add_parser("sweep", help="vary one config key over a list of values"))
    p_sw.add_argument("--sweep-key", required=True)
    p_sw.add_argument("--sweep-values", required=True,
                      help="semicolon-separated values, parsed as config values, "
                           "e.g. '0.01;0.05', '[3,3];[3,3.5]' or 'adp;qp'")
    p_sw.set_defaults(func=cmd_sweep, out="sweep.csv")

    for p in (p_run, p_cmp):
        p.add_argument("--summary", type=_path, help="summary JSON path")
    for p in (p_run, p_sw):
        p.add_argument("--controller", choices=["adp", "qp"])

    p_st = sub.add_parser("selftest", help="run the oracle suites")
    p_st.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage error would exit 2, SAFETY_BREACH's code
        return EXIT_CONFIG_ERROR if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OSError as exc:  # an output file that cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
