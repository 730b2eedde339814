import json
import os
import re
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
                "weak_excitation", "wall_clock_s"}


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

    @pytest.mark.parametrize("controller", ["adp", "qp"])
    @pytest.mark.parametrize("t_final, rows", [(1e-10, 2), (1e-20, 1)])
    def test_tiny_horizon_ends_ok(self, tmp_path, qp_record, controller, t_final, rows):
        # a t_final past the landing tolerance of 0 is one step and two
        # rows; one within it is the start alone, one row; the QP holds the
        # input it solved at 0 either way, the default run's first input
        code, out, summary = _run(tmp_path, "--controller", controller,
                                  "--t-final", str(t_final))
        assert code == 0
        assert json.loads(summary.read_text())["status"] == "OK"
        lines = out.read_text().splitlines()[1:]
        assert len(lines) == rows and lines[-1].endswith(",OK")
        assert [float(line.split(",")[0]) for line in lines] == [0.0, t_final][:rows]
        if controller == "qp":
            for line in lines:
                np.testing.assert_array_equal([float(v) for v in line.split(",")[3:5]],
                                              qp_record.u[0])

    def test_seed_flag_sets_the_gains_seed(self, tmp_path):
        flagged = tmp_path / "flag.csv"
        assert main(["run", "--t-final", "0.5", "--seed", "3", "--out", str(flagged)]) == 0
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("gains.seed = 3\n")
        configured = tmp_path / "cfg.csv"
        assert main(["run", "--t-final", "0.5", "--config", str(cfg),
                     "--out", str(configured)]) == 0
        unseeded = tmp_path / "seed0.csv"
        assert main(["run", "--t-final", "0.5", "--out", str(unseeded)]) == 0
        assert flagged.read_bytes() == configured.read_bytes() != unseeded.read_bytes()

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

    def test_breach_between_accepted_points_exit_code(self, tmp_path, capsys):
        # a 4 s hold whose straight path crosses the obstacle between two
        # accepted points: the rows reach h < 0 from t = 1.07, so the run
        # ends SAFETY_BREACH there instead of exiting 0
        cfg = tmp_path / "crossing.cfg"
        cfg.write_text("qp.dt = 4.0\nsim.x0 = [3.491, 2.652]\n")
        out, summary = tmp_path / "t.csv", tmp_path / "s.json"
        code = main(["run", "--controller", "qp", "--config", str(cfg), "--out", str(out),
                     "--summary", str(summary)])
        assert code == 2
        assert "status=SAFETY_BREACH" in capsys.readouterr().out
        assert json.loads(summary.read_text())["status"] == "SAFETY_BREACH"
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        h_col = np.array([float(r[5]) for r in rows])
        assert len(rows) == 108 and float(rows[-1][0]) == pytest.approx(1.07, abs=1e-12)
        assert h_col[-1] < 0.0 <= h_col[:-1].min()
        assert rows[-1][-1] == "SAFETY_BREACH"


    def test_infeasible_qp_exit_code(self, tmp_path, capsys):
        # the drift -0.5 x moves the start toward the obstacle faster than
        # the input box |u_i| <= 0.5 can hold it off, so no input meets the
        # CBF row at t = 0: the run ends there with one row and exits 3
        cfg = tmp_path / "infeasible.cfg"
        cfg.write_text("system.kind = linear\nsystem.A = [[-0.5, 0.0], [0.0, -0.5]]\n"
                       "system.B = [[1.0, 0.0], [0.0, 1.0]]\n")
        out, summary = tmp_path / "t.csv", tmp_path / "s.json"
        code = main(["run", "--controller", "qp", "--config", str(cfg), "--out", str(out),
                     "--summary", str(summary)])
        assert code == 3
        assert "status=QP_INFEASIBLE" in capsys.readouterr().out
        assert json.loads(summary.read_text())["status"] == "QP_INFEASIBLE"
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 1 and rows[0].endswith(",QP_INFEASIBLE")


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


class TestUsage:
    # argparse's own exit code for a usage error is 2, the code of SAFETY_BREACH
    @pytest.mark.parametrize("args", [
        ["run", "--bogus"],
        ["run", "--t-final", "abc"],
        ["run", "--seed", "1.5"],
        ["compare", "--controller", "qp"],
        ["sweep", "--sweep-key", "gains.seed"],
        [],
        # sweep writes no joint summary, so it takes no --summary
        ["sweep", "--out", "s.csv", "--summary", "m.json", "--sweep-key", "gains.seed",
         "--sweep-values", "0"],
        # an empty path names no file, and no output falls back to a default name
        ["run", "--out", ""],
        ["run", "--summary", ""],
        ["compare", "--out", ""],
        ["compare", "--summary", ""],
        ["sweep", "--out", "", "--sweep-key", "gains.seed", "--sweep-values", "0;1"],
        # nor does an empty config path fall back to the defaults
        ["run", "--config", ""],
        ["compare", "--config", ""],
        ["sweep", "--config", "", "--sweep-key", "gains.seed", "--sweep-values", "0;1"],
    ], ids=["unknown-flag", "bad-float", "bad-int", "compare-controller",
            "missing-sweep-values", "no-command", "sweep-summary", "run-empty-out",
            "run-empty-summary", "compare-empty-out", "compare-empty-summary",
            "sweep-empty-out", "run-empty-config", "compare-empty-config",
            "sweep-empty-config"])
    def test_usage_error_exit_code(self, tmp_path, monkeypatch, capsys, args):
        monkeypatch.chdir(tmp_path)
        episodes = []
        monkeypatch.setattr(sa.cli, "run_episode", episodes.append)
        assert main(args) == 4
        assert episodes == []
        assert "error: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [["--help"], ["sweep", "--help"]])
    def test_help_exits_0(self, capsys, args):
        assert main(args) == 0
        assert capsys.readouterr().out.startswith("usage: safeadp")


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

    @pytest.mark.parametrize("args", [
        ["run", "--t-final", "0.3", "--out", "a.csv", "--summary", "a.csv"],
        ["run", "--t-final", "0.3", "--out", "./r.csv", "--summary", "r.csv"],
        ["compare", "--t-final", "0.2", "--out", "c.csv", "--summary", "c_qp.csv"],
    ], ids=["run-same-name", "run-alias", "compare-summary-on-a-csv"])
    def test_outputs_must_be_distinct_files(self, tmp_path, monkeypatch, capsys, args):
        # two outputs on one file would leave only the last one written
        monkeypatch.chdir(tmp_path)
        episodes = []
        monkeypatch.setattr(sa.cli, "run_episode", episodes.append)
        assert main(args) == 4
        assert episodes == []
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and len(err.splitlines()) == 1
        assert "are the same file" in err and args[-1] in err
        assert list(tmp_path.iterdir()) == []

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
        # a step within twice the landing tolerance at t_final
        ("sim.dt_out = 1e-300", "sim.dt_out: no time grid of step 1e-300"),
        ("qp.dt = 1e-300", "qp.dt: no time grid of step 1e-300"),
        (LINEAR.replace("1.0]", "1e999]") + "system.B = [[0.0], [1.0]]",
         "system: A and B must be finite"),
        # matrices the single integrator would ignore
        ("system.A = [[0.2, 0.0], [0.0, 0.2]]",
         "system.A and system.B need system.kind = linear, not 'single_integrator'"),
        ("system.B = [[1.0, 0.0], [0.0, 1.0]]", "system.A and system.B need system.kind"),
        # a matrix that is not an array of numbers
        (LINEAR + "system.B = [[0.0], [1.0]]\ncost.r_diag = [10.0]\nsystem.A = {1: 2}",
         "system.A: expected list, got {1: 2}"),
        # a boolean is not read as 1 or 0, alone or in an array
        ("sim.t_final = True", "sim.t_final: expected float, got True: a boolean is not a number"),
        ("gains.N = True", "gains.N: expected int, got True: a boolean is not a number"),
        ("gains.seed = False", "gains.seed: expected int, got False: a boolean"),
        ("sim.x0 = [True, 3.5]", "sim.x0: expected list, got [True, 3.5]: a boolean"),
        ("staf.offsets = [[0.0, -1.0], [0.866, -0.5], [-0.866, False]]",
         "staf.offsets: expected list, got [[0.0, -1.0], [0.866, -0.5], [-0.866, False]]: a bool"),
        (LINEAR.replace("1.0]", "True]") + "system.B = [[0.0], [1.0]]",
         "system.A: expected list, got [[0.0, True], [0.0, 0.0]]: a boolean"),
        # lines and values each component refuses
        ("sim.t_final", "bad.cfg:1: expected `key = value`, got 'sim.t_final'"),
        ("system.kind = cubic", "unknown system.kind 'cubic'"),
        ("cost.Q = [1.0, 0.0, 0.0, -1.0]", "cost: Q must be positive definite"),
        ("cost.r_diag = [10.0, 0.0]", "cost: r_diag entries must be positive"),
        ("cost.u_max = 0", "cost: u_max must be positive"),
        ("barrier.k_p = 0", "barrier: k_p must be positive"),
        ("sim.dt_out = 0", "sim: t_final, tol, and dt_out must be positive"),
        ("sim.tol = 0", "sim: t_final, tol, and dt_out must be positive"),
        # a relative error of 100 % or more lets an OK run end with a
        # negative integral of a nonnegative cost
        ("sim.tol = 1", "sim: tol must be below 1"),
        ("sim.tol = 1e300", "sim: tol must be below 1"),
        ("safeset.radius = 0", "safeset: radius must be positive"),
        ("staf.offsets = [0.0, -1.0]", "staf: offsets must be an L x n array"),
        # not config keys: the one tolerance is sim.tol, and theta's scale,
        # the excitation window, the barrier's offset and band, Gamma(0) and
        # the actor bound are the constants SCALE_NUM, PE_WINDOW,
        # BBAR_OFFSET, D_ON, D_OFF, GAMMA0 and WA_BOUND
        ("sim.abs_tol = 1e-6", "bad.cfg:1: unknown key 'sim.abs_tol'"),
        ("sim.rel_tol = 1e-6", "bad.cfg:1: unknown key 'sim.rel_tol'"),
        ("staf.scale_num = 0.5", "bad.cfg:1: unknown key 'staf.scale_num'"),
        ("gains.pe_window = 1.0", "bad.cfg:1: unknown key 'gains.pe_window'"),
        ("barrier.a = 0.5", "bad.cfg:1: unknown key 'barrier.a'"),
        ("barrier.d_on = 1.0", "bad.cfg:1: unknown key 'barrier.d_on'"),
        ("barrier.d_off = 1.0", "bad.cfg:1: unknown key 'barrier.d_off'"),
        ("gains.gamma0 = 1.0", "bad.cfg:1: unknown key 'gains.gamma0'"),
        ("gains.wa_bound = 20.0", "bad.cfg:1: unknown key 'gains.wa_bound'"),
    ])
    def test_out_of_range_value_exit_code(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "t.csv")])
        assert code == 4
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and message in err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("t_final", [1e-10, 5.0])
    @pytest.mark.parametrize("key", ["qp.dt", "sim.dt_out"])
    @pytest.mark.parametrize("factor", [0.5, 1.0, 1.5, 2.0])
    def test_step_within_twice_the_landing_tolerance_is_refused(
            self, tmp_path, capsys, monkeypatch, t_final, key, factor):
        # two grid points within the landing tolerance of each other, or one
        # within it of t_final, would be read as one time: such a step is
        # refused before the episode runs
        episodes = []
        monkeypatch.setattr(sa.cli, "run_episode", episodes.append)
        step = factor * float(sa.integrate._edge(t_final))
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {step!r}\n")
        code = main(["run", "--controller", "qp", "--t-final", repr(t_final),
                     "--config", str(cfg), "--out", str(tmp_path / "t.csv")])
        assert code == 4
        bound = 2.0 * sa.integrate._edge(t_final)
        assert capsys.readouterr().err == (
            f"config error: {key}: no time grid of step {step!r} up to t_final: the step "
            f"must exceed twice the landing tolerance at t_final, {bound:g}\n")
        assert episodes == []
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("controller", ["adp", "qp"])
    @pytest.mark.parametrize("x0", ["[1e300, 1e300]", "[1e154, 1e154]"])
    def test_start_whose_h_overflows_is_a_config_error(self, tmp_path, capsys, controller, x0):
        cfg = tmp_path / "far.cfg"
        cfg.write_text(f"sim.x0 = {x0}\n")
        code = main(["run", "--controller", controller, "--t-final", "0.5", "--config", str(cfg),
                     "--out", str(tmp_path / "t.csv"), "--summary", str(tmp_path / "s.json")])
        assert code == 4
        assert capsys.readouterr().err == (
            "config error: sim: x0 must lie in the interior of the safe set at a finite h "
            "(h = inf)\n")
        assert list(tmp_path.iterdir()) == [cfg]

    # a start this far out overflows inside the run, not in h(x0)
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("controller, code, status", [("adp", 5, "STEP_UNDERFLOW"),
                                                          ("qp", 3, "QP_INFEASIBLE")])
    def test_far_start_with_finite_h_runs(self, tmp_path, controller, code, status):
        cfg = tmp_path / "far.cfg"
        cfg.write_text("sim.x0 = [1e150, 1e150]\n")
        summary = tmp_path / "s.json"
        assert main(["run", "--controller", controller, "--t-final", "0.5", "--config", str(cfg),
                     "--out", str(tmp_path / "t.csv"), "--summary", str(summary)]) == code
        assert json.loads(summary.read_text())["status"] == status

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

    def test_unknown_key_is_one_error_for_values_and_overrides(self):
        messages = set()
        for values, overrides in (({"nope.x": 1}, {}), (None, {"nope__x": 1}),
                                  ({"sim.t_final": 1.0}, {"nope__x": 1})):
            with pytest.raises(ConfigError) as exc:
                sa.build_scenario(values, **overrides)
            messages.add(str(exc.value))
        assert messages == {"unknown config keys: ['nope.x']"}

    @pytest.mark.parametrize("overrides, pattern", [
        ({"system__kind": "linear", "system__A": {1: 2}, "system__B": np.eye(2)},
         r"system\.A: expected list, got \{1: 2\}"),
        ({"sim__t_final": True},
         r"sim\.t_final: expected float, got True: a boolean is not a number"),
        ({"gains__N": np.True_}, r"gains\.N: expected int, got .*: a boolean is not a number"),
        ({"sim__x0": np.array([True, True])},
         r"sim\.x0: expected list, got .*: a boolean is not a number"),
    ], ids=["dict-matrix", "bool", "numpy-bool", "bool-array"])
    def test_value_of_the_wrong_type_is_a_config_error(self, overrides, pattern):
        with pytest.raises(ConfigError, match=f"^{pattern}$"):
            sa.build_scenario(**overrides)

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
        assert set(joint) == {"adp", "qp", "adp_converges_better"}
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

    @pytest.mark.parametrize("line", ["system.B = [[1.0, 0.0], [0.0, 1.0]]", "gains.nu = 0"])
    def test_config_file_error_is_reported_as_run_reports_it(self, tmp_path, capsys, line):
        # no sweep value is at fault, so the message carries no --sweep-values prefix
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 4
        run_err = capsys.readouterr().err
        code = main(["sweep", "--config", str(cfg), "--t-final", "0.3",
                     "--out", str(tmp_path / "sw.csv"),
                     "--sweep-key", "gains.seed", "--sweep-values", "0;1"])
        assert code == 4
        err = capsys.readouterr().err
        assert err == run_err and err.count("\n") == 1
        assert "--sweep-values" not in err
        assert not (tmp_path / "sw_000.csv").exists()

    def test_sweep_key_may_complete_the_config(self, tmp_path, capsys):
        # the file alone is rejected (no system.B), but every swept value completes it
        cfg = tmp_path / "lin.cfg"
        cfg.write_text(LINEAR + "cost.r_diag = [10.0]\n")
        code = main(["sweep", "--config", str(cfg), "--t-final", "0.3",
                     "--out", str(tmp_path / "sw.csv"), "--sweep-key", "system.B",
                     "--sweep-values", "[[0.0], [1.0]];[[0.0], [2.0]]"])
        assert code == 0
        assert capsys.readouterr().err == ""
        for i in range(2):
            assert (tmp_path / f"sw_{i:03d}.csv").exists()

    def test_malformed_matrix_ends_the_sweep(self, tmp_path, capsys):
        # the file is complete, so the value is at fault: one config error, no file
        cfg = tmp_path / "lin.cfg"
        cfg.write_text(LINEAR + "system.B = [[0.0], [1.0]]\ncost.r_diag = [10.0]\n")
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw.csv"),
                     "--sweep-key", "system.A",
                     "--sweep-values", "[[0.0, 1.0], [0.0, 0.0]];{1: 2}"])
        assert code == 4
        err = capsys.readouterr().err
        assert err == "config error: --sweep-values:2: system.A: expected list, got {1: 2}\n"
        assert list(tmp_path.iterdir()) == [cfg]

    def test_value_error_unlike_the_file_error_keeps_the_prefix(self, tmp_path, capsys):
        # the file alone fails for want of system.B; value 2 fails for a reason of its own
        cfg = tmp_path / "lin.cfg"
        cfg.write_text(LINEAR + "cost.r_diag = [10.0]\n")
        code = main(["sweep", "--config", str(cfg), "--t-final", "0.3",
                     "--out", str(tmp_path / "sw.csv"), "--sweep-key", "system.B",
                     "--sweep-values", "[[0.0], [1.0]];[[0.0], [1e999]]"])
        assert code == 4
        err = capsys.readouterr().err
        assert err == "config error: --sweep-values:2: system: A and B must be finite\n"
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
        assert out.count("[PASS]") == 7


@pytest.mark.parametrize("args, labels", [
    (["run", "--out", "r.csv"], ["adp"]),
    (["compare", "--out", "c.csv"], ["adp", "qp"]),
    (["sweep", "--out", "s.csv", "--sweep-key", "gains.seed", "--sweep-values", "0;1"],
     ["gains.seed=0", "gains.seed=1"]),
], ids=["run", "compare", "sweep"])
def test_one_status_line_per_episode(tmp_path, monkeypatch, capsys, args, labels):
    monkeypatch.chdir(tmp_path)
    assert main([*args, "--t-final", "0.2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ", 1)[0] for line in lines] == labels
    pattern = r"status=OK min_h=\S+ terminal_x=\S+ J=\S+"
    assert all(re.fullmatch(pattern, line.split(": ", 1)[1]) for line in lines)


def test_runtime_does_not_load_scipy():
    # the library, the CLI and the oracles load no SciPy, and with SciPy
    # unimportable (a None entry fails its import) selftest still passes
    src = str(Path(sa.__file__).resolve().parents[1])
    code = ("import sys, safeadp, safeadp.cli, safeadp.oracles; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "sys.modules['scipy'] = None; "
            "sys.exit(safeadp.cli.main(['selftest']))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "[]"
    assert len(lines) == 8 and all(line.startswith("[PASS] ") for line in lines[1:])
