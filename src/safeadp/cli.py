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
    n = record.x.shape[1]
    m = record.u.shape[1]
    L = record.Wc.shape[1]
    header = (["t"]
              + [f"x{i+1}" for i in range(n)]
              + [f"u{i+1}" for i in range(m)]
              + ["h", "B", "Vhat", "delta"]
              + [f"Wc{i+1}" for i in range(L)]
              + [f"Wa{i+1}" for i in range(L)]
              + ["minEigGamma", "c1", "J", "status"])
    table = np.column_stack((record.t, record.x, record.u, record.h, record.B, record.Vhat,
                             record.delta, record.Wc, record.Wa, record.min_eig_gamma,
                             record.c1, record.J)).tolist()
    row_fmt = ",".join(["%.17g"] * (len(header) - 1)) + ",%s\n"
    statuses = ["OK"] * (len(table) - 1) + [record.status]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
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
    if getattr(args, "controller", None):
        values["sim.controller"] = args.controller
    if getattr(args, "seed", None) is not None:
        values["gains.seed"] = args.seed
    if getattr(args, "t_final", None) is not None:
        values["sim.t_final"] = args.t_final
    return values


def _check_outputs(*paths):
    """Raise OSError for an output path that cannot be written: its
    directory is missing or read-only, or the path is a directory. Called
    before the first episode, so that a bad path costs no run and leaves
    no partial output."""
    for path in filter(None, paths):
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), parent)
        if not os.access(parent, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), parent)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def cmd_run(args):
    scn = build_scenario(_load_values(args))
    _check_outputs(args.out, args.summary)
    record = run_episode(scn)
    summary = summarize(record)
    write_csv(record, args.out)
    if args.summary:
        write_summary(summary.as_dict(), args.summary)
    print(f"{record.controller}: status={record.status} min_h={summary.min_h:.6g} "
          f"terminal_x={summary.terminal_x_norm:.6g} J={summary.total_J:.6g}")
    return _STATUS_EXIT[record.status]


def cmd_compare(args):
    values = _load_values(args)
    stem = str(Path(args.out).with_suffix("")) if args.out else "compare"
    scenarios = {ctrl: build_scenario(values, sim__controller=ctrl) for ctrl in ("adp", "qp")}
    summary_path = args.summary or f"{stem}_summary.json"
    _check_outputs(*(path for ctrl in scenarios
                     for path in (f"{stem}_{ctrl}.csv", *panel_paths(f"{stem}_{ctrl}"))),
                   summary_path)
    summaries = {}
    for ctrl, scn in scenarios.items():
        record = run_episode(scn)
        summaries[ctrl] = summarize(record)
        write_csv(record, f"{stem}_{ctrl}.csv")
        write_panels(record, f"{stem}_{ctrl}")
    joint = {
        "adp": summaries["adp"].as_dict(),
        "qp": summaries["qp"].as_dict(),
        "terminal_x_norm_adp": summaries["adp"].terminal_x_norm,
        "terminal_x_norm_qp": summaries["qp"].terminal_x_norm,
        "adp_converges_better": summaries["adp"].terminal_x_norm < summaries["qp"].terminal_x_norm,
    }
    write_summary(joint, summary_path)
    for ctrl in ("adp", "qp"):
        s = summaries[ctrl]
        print(f"{ctrl}: status={s.status} min_h={s.min_h:.6g} "
              f"terminal_x={s.terminal_x_norm:.6g} J={s.total_J:.6g}")
    return max(_STATUS_EXIT[s.status] for s in summaries.values())


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
            raise ConfigError(f"--sweep-values:{i}: {exc}") from None
    stem = str(Path(args.out).with_suffix("")) if args.out else "sweep"
    _check_outputs(*(f"{stem}_{idx:03d}{end}" for idx in range(len(scenarios))
                     for end in (".csv", "_summary.json")))

    results = []
    for idx, (val, scn) in enumerate(zip(sweep_values, scenarios)):
        record = run_episode(scn)
        write_csv(record, f"{stem}_{idx:03d}.csv")
        d = summarize(record).as_dict()
        d["sweep_key"] = args.sweep_key
        d["sweep_value"] = val
        write_summary(d, f"{stem}_{idx:03d}_summary.json")
        results.append((record.status, d))
    for (status, d) in results:
        print(f"{args.sweep_key}={d['sweep_value']}: status={status} "
              f"min_h={d['min_h']:.6g} terminal_x={d['terminal_x_norm']:.6g}")
    return max(_STATUS_EXIT[status] for status, _ in results)


def cmd_selftest(_args):
    try:  # the oracles need SciPy, which only selftest and the tests use
        from .oracles import run_selftest
    except ModuleNotFoundError as exc:
        if (exc.name or "").split(".")[0] != "scipy":
            raise
        print("selftest needs SciPy: pip install 'safeadp[test]'", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    results = run_selftest()
    all_ok = True
    for name, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        all_ok = all_ok and ok
    return EXIT_OK if all_ok else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="safeadp",
                                     description="Barrier-embedded safe optimal control runner")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_controller=True):
        p.add_argument("--config", help="config file (flat dotted keys)")
        p.add_argument("--seed", type=int, help="RNG seed (overrides gains.seed)")
        p.add_argument("--t-final", dest="t_final", type=float, help="episode length in seconds")
        p.add_argument("--out", help="output CSV path / stem")
        p.add_argument("--summary", help="summary JSON path")
        if with_controller:
            p.add_argument("--controller", choices=["adp", "qp"])

    p_run = sub.add_parser("run", help="run one episode")
    common(p_run)
    p_run.set_defaults(func=cmd_run, out="traj.csv")

    p_cmp = sub.add_parser("compare", help="run both controllers with shared geometry/seed")
    common(p_cmp, with_controller=False)
    p_cmp.set_defaults(func=cmd_compare, out="compare.csv")

    p_sw = sub.add_parser("sweep", help="vary one config key over a list of values")
    common(p_sw)
    p_sw.add_argument("--sweep-key", required=True)
    p_sw.add_argument("--sweep-values", required=True,
                      help="semicolon-separated values, parsed as config values, "
                           "e.g. '0.01;0.05', '[3,3];[3,3.5]' or 'adp;qp'")
    p_sw.set_defaults(func=cmd_sweep, out="sweep.csv")

    p_st = sub.add_parser("selftest", help="run the oracle suites")
    p_st.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
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
