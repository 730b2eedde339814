import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import safeadp as sa
from safeadp.cli import main, write_csv, write_panels
from safeadp.config import DEFAULTS, parse_config
from safeadp.errors import ConfigError

# a double integrator; the tests append its input matrix system.B
LINEAR = "system.kind = linear\nsystem.A = [[0.0, 1.0], [0.0, 0.0]]\n"
# the keys of every summary JSON: of `run`, of a `sweep` value (which adds
# sweep_key and sweep_value) and of each controller in `compare`
SUMMARY_KEYS = {"controller", "status", "min_h", "terminal_x_norm", "max_u_inf", "total_J",
                "j_native_total", "mean_abs_delta_early", "mean_abs_delta_late",
                "infeasible_events", "weak_excitation", "wall_clock_s"}


def _run(tmp_path, *extra):
    out = tmp_path / "traj.csv"
    summary = tmp_path / "summary.json"
    code = main(["run", "--t-final", "0.5", "--out", str(out),
                 "--summary", str(summary), *extra])
    return code, out, summary


class TestRun:
    def test_ok_exit_and_outputs(self, tmp_path, capsys):
        code, out, summary = _run(tmp_path)
        assert code == 0
        assert out.exists() and summary.exists()
        assert "status=OK" in capsys.readouterr().out

    def test_csv_header(self, tmp_path):
        _code, out, _ = _run(tmp_path)
        header = out.read_text().splitlines()[0].split(",")
        assert header == ["t", "x1", "x2", "u1", "u2", "h", "B", "Vhat",
                          "delta", "Wc1", "Wc2", "Wc3", "Wa1", "Wa2", "Wa3",
                          "minEigGamma", "c1", "J", "status"]

    def test_rows_and_line_endings(self, tmp_path):
        _code, out, _ = _run(tmp_path)
        raw = out.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert len(lines) == 1 + 51  # header + rows at dt_out = 0.01
        assert lines[-1].endswith(",OK")

    def test_value_round_trip(self, tmp_path, adp_record):
        # 17 significant digits reproduce the double exactly
        path = tmp_path / "rt.csv"
        write_csv(adp_record, path)
        lines = path.read_text().splitlines()[1:]
        for i in (0, 100, len(lines) - 1):
            vals = lines[i].split(",")
            assert float(vals[1]) == adp_record.x[i, 0]
            assert float(vals[2]) == adp_record.x[i, 1]
            assert float(vals[18 - 1]) == adp_record.J[i]

    def test_every_cell_is_its_17_digit_form(self, tmp_path):
        # non-finite, signed-zero, subnormal and extreme cells in every column
        rng = np.random.default_rng(5)
        special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1, -1e-300]
        R, n, m, L = 4, 2, 2, 3

        def col(*shape):
            return rng.choice(special + list(rng.normal(size=4)), size=(R,) + shape)

        rec = sa.TrajectoryRecord(
            t=col(), x=col(n), u=col(m), h=col(), B=col(), Vhat=col(), delta=col(),
            Wc=col(L), Wa=col(L), min_eig_gamma=col(), c1=col(), J=col(),
            status="SAFETY_BREACH", controller="adp")
        path = tmp_path / "cells.csv"
        write_csv(rec, path)
        table = np.column_stack((rec.t, rec.x, rec.u, rec.h, rec.B, rec.Vhat, rec.delta,
                                 rec.Wc, rec.Wa, rec.min_eig_gamma, rec.c1, rec.J))
        lines = path.read_text().splitlines()[1:]
        assert len(lines) == R
        for i, line in enumerate(lines):
            cells = line.split(",")
            assert cells[:-1] == [f"{v:.17g}" for v in table[i]]
            assert cells[-1] == ("SAFETY_BREACH" if i == R - 1 else "OK")
        with np.errstate(over="ignore"):  # the norm of a row near the largest double
            write_panels(rec, tmp_path / "p")
            panels = {"xnorm": np.linalg.norm(rec.x, axis=1), "h": rec.h,
                      "uinf": np.max(np.abs(rec.u), axis=1)}
        for name, series in panels.items():
            text = (tmp_path / f"p_panel_{name}.dat").read_text()
            assert text == "".join(f"{t:.17g} {v:.17g}\n" for t, v in zip(rec.t, series))

    def test_byte_identical_across_runs(self, tmp_path):
        _c1, out1, _ = _run(tmp_path)
        data1 = out1.read_bytes()
        out2 = tmp_path / "traj2.csv"
        main(["run", "--t-final", "0.5", "--out", str(out2),
              "--summary", str(tmp_path / "s2.json")])
        assert data1 == out2.read_bytes()

    def test_qp_episode_after_another_writes_the_same_bytes(self, tmp_path):
        # no solver state outlives an episode: a QP run after a QP run from
        # another start writes what the same run writes in a fresh process
        src = str(Path(sa.__file__).resolve().parents[1])
        alone = tmp_path / "alone.csv"
        subprocess.run([sys.executable, "-m", "safeadp.cli", "run", "--controller", "qp",
                        "--t-final", "2", "--out", str(alone)], capture_output=True,
                       check=True, env={**os.environ, "PYTHONPATH": src})
        cfg = tmp_path / "stall.cfg"
        cfg.write_text("sim.x0 = [3.0, 3.0]\n")
        after = tmp_path / "after.csv"
        assert main(["run", "--controller", "qp", "--t-final", "2", "--config", str(cfg),
                     "--out", str(tmp_path / "first.csv")]) == 0
        assert main(["run", "--controller", "qp", "--t-final", "2", "--out", str(after)]) == 0
        assert after.read_bytes() == alone.read_bytes()

    def test_summary_matches_csv(self, tmp_path):
        _code, out, summary = _run(tmp_path)
        d = json.loads(summary.read_text())
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        h_col = np.array([float(r[5]) for r in rows])
        assert d["min_h"] == pytest.approx(h_col.min(), abs=1e-15)
        assert d["status"] == "OK"
        assert d["controller"] == "adp"
        assert set(d) == SUMMARY_KEYS

    def test_qp_breach_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "breach.cfg"
        cfg.write_text("sim.controller = qp\nqp.dt = 2.0\n")
        out = tmp_path / "t.csv"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "status=SAFETY_BREACH" in capsys.readouterr().out
        assert out.read_text().splitlines()[-1].endswith(",SAFETY_BREACH")


class TestExitCodes:
    def test_every_runner_status_has_an_exit_code(self):
        # the statuses the runners and the integrator can end with, read
        # from their source, so that a new status cannot fall through
        import inspect
        import re
        from safeadp import cli, integrate, sim
        source = inspect.getsource(sim) + inspect.getsource(integrate)
        statuses = set(re.findall(r'"([A-Z][A-Z_]+)"', source))
        assert {"OK", "SAFETY_BREACH", "QP_INFEASIBLE", "STEP_UNDERFLOW",
                "GAIN_INDEFINITE"} <= statuses
        assert statuses <= set(cli._STATUS_EXIT)
        assert [s for s, code in cli._STATUS_EXIT.items() if code == 0] == ["OK"]
        assert cli._STATUS_EXIT["STEP_UNDERFLOW"] == cli._STATUS_EXIT["GAIN_INDEFINITE"] == 5

    def test_gain_indefinite_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sa.sim, "gamma_rhs",
                            lambda gains, Gamma, rows: -20.0 * np.eye(len(Gamma)))
        code, out, _ = _run(tmp_path)
        assert code == 5
        assert "status=GAIN_INDEFINITE" in capsys.readouterr().out
        assert out.read_text().splitlines()[-1].endswith(",GAIN_INDEFINITE")


    def test_qp_solver_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sa.qpsolve, "kkt_ok", lambda *args, **kwargs: False)
        code, out, _ = _run(tmp_path, "--controller", "qp")
        assert code == 5
        assert "status=QP_SOLVER_FAILED" in capsys.readouterr().out
        assert out.read_text().splitlines()[-1].endswith(",QP_SOLVER_FAILED")


class TestOutputErrors:
    # a path whose directory does not exist ends in one line and exit 4
    @pytest.mark.parametrize("command, flag", [("run", "--out"), ("run", "--summary"),
                                               ("compare", "--out"), ("compare", "--summary")])
    def test_unwritable_path_exit_code(self, tmp_path, capsys, command, flag):
        paths = {"--out": str(tmp_path / "out.csv"), "--summary": str(tmp_path / "s.json")}
        paths[flag] = str(tmp_path / "no" / "such" / "file")
        args = [command, "--t-final", "0.2"] + [a for kv in paths.items() for a in kv]
        assert main(args) == 4
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and len(err.splitlines()) == 1
        assert str(tmp_path / "no" / "such") in err

    @pytest.mark.parametrize("args", [
        ["run", "--controller", "qp", "--out", "{bad}/x.csv"],
        ["run", "--summary", "{bad}/s.json"],
        ["compare", "--out", "{bad}/c.csv"],
        ["compare", "--summary", "{bad}/s.json"],
        ["sweep", "--out", "{bad}/sw.csv", "--sweep-key", "gains.seed", "--sweep-values", "0;1"],
        ["run", "--out", "{dir}"],
    ], ids=["run-out", "run-summary", "compare-out", "compare-summary", "sweep-out",
            "out-is-a-directory"])
    def test_bad_path_ends_before_any_episode(self, tmp_path, monkeypatch, capsys, args):
        # the default outputs would land in the working directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        episodes = []
        monkeypatch.setattr(sa.cli, "run_episode", episodes.append)
        bad, dir_ = tmp_path / "no" / "such", tmp_path / "d"
        assert main([a.format(bad=bad, dir=dir_) for a in args]) == 4
        assert episodes == []
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and len(err.splitlines()) == 1
        assert str(dir_ if "{dir}" in args else bad) in err
        assert list(tmp_path.iterdir()) == [dir_] and list(dir_.iterdir()) == []

    def test_compare_checks_its_panel_paths(self, tmp_path, monkeypatch, capsys):
        # a directory where a panel file goes ends compare before its first
        # episode, with nothing written
        monkeypatch.chdir(tmp_path)
        panel = tmp_path / "cmp_qp_panel_h.dat"
        panel.mkdir()
        episodes = []
        monkeypatch.setattr(sa.cli, "run_episode", episodes.append)
        assert main(["compare", "--t-final", "0.2", "--out", "cmp.csv"]) == 4
        assert episodes == []
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and len(err.splitlines()) == 1
        assert "cmp_qp_panel_h.dat" in err
        assert list(tmp_path.iterdir()) == [panel] and list(panel.iterdir()) == []

    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and len(err.splitlines()) == 1


class TestConfig:
    def test_parse_defaults_file(self):
        values = parse_config("default.cfg")
        assert values["sim.controller"] in ("adp", "qp")
        assert values["gains.kc2"] == 0.75

    def test_defaults_file_matches_table(self):
        path = Path(__file__).resolve().parents[1] / "default.cfg"
        lines = [ln.split("#", 1)[0] for ln in path.read_text().splitlines()]
        written = {ln.partition("=")[0].strip() for ln in lines if ln.strip()}
        assert written == set(DEFAULTS) - {"system.A", "system.B"}
        assert parse_config(path) == DEFAULTS

    @pytest.mark.parametrize("line, message", [
        ("gains.nu = 0", "gains: nu must be positive"),
        ("qp.alpha_scale = 0", "qp: alpha_scale must be positive"),
        ("gains.N = 1.5", "gains.N: expected an integer"),
        ("gains.seed = -1", "gains: seed must be nonnegative"),
        ("sim.x0 = [2.0, 2.5]", "sim: x0 must lie in the interior of the safe set"),
        # arrays sized for another system than the one built
        ("cost.r_diag = [10.0, 10.0, 10.0]", "cost.r_diag: shape (3,) does not fit"),
        ("cost.Q = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]", "cost.Q: shape (9,)"),
        ("staf.offsets = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]", "staf.offsets: shape (2, 3)"),
        ("safeset.center = [2.0, 2.0, 2.0]", "safeset.center: shape (3,) does not fit"),
        ("sim.x0 = [3.0, 3.5, 1.0]", "sim.x0: shape (3,) does not fit"),
        (LINEAR + "system.B = [[0.0], [1.0]]", "cost.r_diag: shape (2,) does not fit"),
        # numbers that are not finite
        ("sim.dt_out = 1e999", "sim.dt_out: expected finite values, got inf"),
        ("sim.x0 = [1e999, 1.0]", "sim.x0: expected finite values, got [inf, 1.0]"),
        ("qp.dt = 1e999", "qp.dt: expected finite values, got inf"),
        (LINEAR.replace("1.0]", "1e999]") + "system.B = [[0.0], [1.0]]",
         "system: A and B must be finite"),
        # matrices the single integrator would ignore
        ("system.A = [[0.2, 0.0], [0.0, 0.2]]",
         "system.A and system.B need system.kind = linear, not 'single_integrator'"),
        ("system.B = [[1.0, 0.0], [0.0, 1.0]]", "system.A and system.B need system.kind"),
    ])
    def test_out_of_range_value_exit_code(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "t.csv")])
        assert code == 4
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and message in err

    def test_non_finite_t_final_exit_code(self, tmp_path, capsys):
        assert main(["run", "--t-final", "nan", "--out", str(tmp_path / "t.csv")]) == 4
        err = capsys.readouterr().err
        assert err == "config error: sim.t_final: expected finite values, got nan\n"
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("key, val", [("sim__t_final", float("inf")),
                                          ("gains__kc1", float("nan")),
                                          ("cost__Q", [1.0, 0.0, 0.0, float("inf")])])
    def test_non_finite_value_is_a_config_error(self, key, val):
        # an infinite t_final would never end; a nan gain would pass every
        # sign check
        with pytest.raises(ConfigError, match=f"^{key.replace('__', '.')}: expected finite"):
            sa.build_scenario(**{key: val})

    @pytest.mark.parametrize("controller", ["adp", "qp"])
    def test_linear_system_runs(self, tmp_path, controller):
        cfg = tmp_path / "lin.cfg"
        cfg.write_text(LINEAR + "system.B = [[0.0], [1.0]]\ncost.r_diag = [10.0]\n")
        out = tmp_path / "t.csv"
        code = main(["run", "--config", str(cfg), "--controller", controller, "--t-final", "0.5",
                     "--out", str(out), "--summary", str(tmp_path / "s.json")])
        assert code == 0
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["status"] == "OK" and summary["controller"] == controller
        header = out.read_text().splitlines()[0].split(",")
        assert "u1" in header and "u2" not in header

    def test_linear_system_needs_its_matrices(self, tmp_path, capsys):
        cfg = tmp_path / "lin.cfg"
        cfg.write_text("system.kind = linear\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 4
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "requires system.A and system.B" in err

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no.such.key = 1\n")
        code = main(["run", "--config", str(cfg)])
        assert code == 4
        err = capsys.readouterr().err
        assert "bad.cfg" in err and ":1" in err

    def test_bad_value_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# comment\ngains.kc1 = not_a_number\n")
        code = main(["run", "--config", str(cfg)])
        assert code == 4
        assert ":2" in capsys.readouterr().err

    def test_config_overrides_apply(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("sim.t_final = 0.2\nsim.controller = qp\n")
        out = tmp_path / "t.csv"
        code = main(["run", "--config", str(cfg), "--out", str(out),
                     "--summary", str(tmp_path / "s.json")])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 21
        assert "nan" in lines[1]  # learner columns empty for the QP baseline


class TestCompare:
    def test_outputs(self, tmp_path, capsys):
        stem = tmp_path / "cmp.csv"
        code = main(["compare", "--t-final", "0.5", "--out", str(stem),
                     "--summary", str(tmp_path / "cmp.json")])
        assert code == 0
        for ctrl in ("adp", "qp"):
            assert (tmp_path / f"cmp_{ctrl}.csv").exists()
            for panel in ("xnorm", "h", "uinf"):
                assert (tmp_path / f"cmp_{ctrl}_panel_{panel}.dat").exists()
        joint = json.loads((tmp_path / "cmp.json").read_text())
        assert set(joint) == {"adp", "qp", "terminal_x_norm_adp", "terminal_x_norm_qp",
                              "adp_converges_better"}
        assert set(joint["adp"]) == set(joint["qp"]) == SUMMARY_KEYS
        out = capsys.readouterr().out
        assert "adp:" in out and "qp:" in out

    def test_summaries_are_strict_json(self, tmp_path):
        # a QP summary has no native J and no Bellman error: those are
        # null, not the NaN that strict parsers (JSON.parse, jq) reject
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        code, _, summary = _run(tmp_path, "--controller", "qp")
        assert code == 0
        d = json.loads(summary.read_text(), parse_constant=reject)
        assert set(d) == SUMMARY_KEYS
        assert d["j_native_total"] is None and d["mean_abs_delta_late"] is None
        assert main(["compare", "--t-final", "0.3", "--out", str(tmp_path / "cmp.csv"),
                     "--summary", str(tmp_path / "cmp.json")]) == 0
        joint = json.loads((tmp_path / "cmp.json").read_text(), parse_constant=reject)
        assert joint["qp"]["j_native_total"] is None
        assert isinstance(joint["adp"]["j_native_total"], float)


class TestSweep:
    def test_sweep_runs_each_value(self, tmp_path):
        stem = tmp_path / "sw.csv"
        code = main(["sweep", "--t-final", "0.3", "--out", str(stem),
                     "--sweep-key", "gains.seed", "--sweep-values", "0;1;2"])
        assert code == 0
        for i in range(3):
            assert (tmp_path / f"sw_{i:03d}.csv").exists()
            d = json.loads((tmp_path / f"sw_{i:03d}_summary.json").read_text())
            assert d["sweep_value"] == i
            assert set(d) == SUMMARY_KEYS | {"sweep_key", "sweep_value"}

    def test_bare_words_for_a_string_key(self, tmp_path, capsys):
        stem = tmp_path / "sw.csv"
        code = main(["sweep", "--t-final", "0.3", "--out", str(stem),
                     "--sweep-key", "sim.controller", "--sweep-values", "adp; qp"])
        assert code == 0
        for i, ctrl in enumerate(("adp", "qp")):
            d = json.loads((tmp_path / f"sw_{i:03d}_summary.json").read_text())
            assert d["sweep_value"] == d["controller"] == ctrl
        assert "sim.controller=qp: status=OK" in capsys.readouterr().out

    @pytest.mark.parametrize("values", ["0;[1", "0;adp", "0;1+"])
    def test_malformed_value_is_a_config_error(self, tmp_path, capsys, values):
        code = main(["sweep", "--t-final", "0.3", "--out", str(tmp_path / "sw.csv"),
                     "--sweep-key", "gains.seed", "--sweep-values", values])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("config error: --sweep-values:2: cannot parse value")
        assert err.count("\n") == 1
        assert not (tmp_path / "sw_000.csv").exists()

    def test_rejected_value_ends_the_sweep_before_any_episode(self, tmp_path, capsys):
        for key, values, message in (("sim.controller", "adp;xyz", "sim: controller must be"),
                                     ("gains.seed", "0;-1", "gains: seed must be nonnegative"),
                                     ("sim.dt_out", "0.01;1e999", "sim.dt_out: expected finite"),
                                     ("system.A", "None;[[0.2, 0.0], [0.0, 0.2]]",
                                      "system.A and system.B need system.kind = linear")):
            code = main(["sweep", "--t-final", "0.3", "--out", str(tmp_path / "sw.csv"),
                         "--sweep-key", key, "--sweep-values", values])
            assert code == 4
            err = capsys.readouterr().err
            assert err.startswith(f"config error: --sweep-values:2: {message}")
            assert err.count("\n") == 1
            assert not (tmp_path / "sw_000.csv").exists()

    def test_unknown_sweep_key(self, tmp_path):
        code = main(["sweep", "--sweep-key", "nope.nope", "--sweep-values", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 4


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code = main(["selftest"])
        assert code == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("[PASS]") >= 6

    def test_missing_scipy_exit_code(self, monkeypatch, capsys):
        # a None entry makes the import fail as if SciPy were not installed
        for name in ("scipy", "scipy.integrate"):
            monkeypatch.setitem(sys.modules, name, None)
        monkeypatch.delitem(sys.modules, "safeadp.oracles", raising=False)
        assert main(["selftest"]) == 4
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "safeadp[test]" in err


def test_runtime_does_not_load_scipy():
    src = str(Path(sa.__file__).resolve().parents[1])
    code = ("import sys, safeadp, safeadp.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
