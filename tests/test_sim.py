import copy
import dataclasses
import time

import numpy as np
import pytest

import safeadp as sa
from safeadp.config import DEFAULTS
from safeadp.critic import GAMMA0, PROJ_LAYER, WA_BOUND
from safeadp.oracles import box_native_value, box_quadratic_value


class TestAdpEpisode:
    def test_completes(self, adp_record):
        assert adp_record.status == "OK"
        assert adp_record.controller == "adp"

    def test_record_shapes(self, adp_record, default_scenario):
        sim = default_scenario.sim
        R = int(round(sim.t_final / sim.dt_out)) + 1
        assert len(adp_record.t) == R
        assert adp_record.x.shape == (R, 2)
        assert adp_record.u.shape == (R, 2)
        assert adp_record.Wc.shape == (R, 3)
        assert adp_record.Wa.shape == (R, 3)
        for name in ("h", "B", "Vhat", "delta", "min_eig_gamma", "c1", "J"):
            assert getattr(adp_record, name).shape == (R,)

    def test_stays_safe(self, adp_record):
        assert np.min(adp_record.h) > 0.0
        assert np.all(np.isfinite(adp_record.B))

    def test_input_box(self, adp_record):
        assert np.max(np.abs(adp_record.u)) <= 0.5 + 1e-9

    def test_running_cost_nondecreasing(self, adp_record):
        assert np.all(np.diff(adp_record.J) >= -1e-9)
        assert adp_record.J[0] == pytest.approx(0.0, abs=1e-12)

    def test_gain_matrix_stays_pd(self, adp_record):
        assert np.all(adp_record.min_eig_gamma > 0.0)
        # the accept hook ends the run GAIN_INDEFINITE at the first step
        # whose Gamma is not positive definite
        assert adp_record.status == "OK"

    def test_weights_bounded(self, adp_record):
        bound = WA_BOUND * np.sqrt(1.0 + PROJ_LAYER)
        assert np.max(np.linalg.norm(adp_record.Wa, axis=1)) <= bound + 1e-6

    def test_deterministic(self, adp_record, default_scenario):
        again = sa.run_adp_episode(default_scenario)
        np.testing.assert_array_equal(adp_record.x, again.x)
        np.testing.assert_array_equal(adp_record.Wc, again.Wc)
        np.testing.assert_array_equal(adp_record.u, again.u)

    def test_wall_clock_times_whole_episode(self):
        scn = sa.build_scenario(sim__t_final=2.0)
        t0 = time.perf_counter()
        rec = sa.run_adp_episode(scn)
        elapsed = time.perf_counter() - t0
        assert rec.wall_clock >= 0.9 * elapsed

    def test_learning_disabled_freezes_weights(self):
        scn = sa.build_scenario(sim__t_final=2.0, gains__kc1=0.0,
                                gains__kc2=0.0, gains__ka1=0.0, gains__beta=0.0)
        rec = sa.run_adp_episode(scn)
        assert rec.status == "OK"
        assert np.max(np.abs(rec.Wc - rec.Wc[0])) <= 1e-12
        assert np.max(np.abs(rec.Wa - rec.Wa[0])) <= 1e-12
        assert np.max(np.abs(rec.min_eig_gamma - rec.min_eig_gamma[0])) <= 1e-10

    def test_gamma_pure_forgetting_closed_form(self):
        # with the error terms off the gain obeys dGamma = beta Gamma
        scn = sa.build_scenario(sim__t_final=1.0, gains__kc1=0.0,
                                gains__kc2=0.0, gains__beta=0.5)
        rec = sa.run_adp_episode(scn)
        expected = GAMMA0 * np.exp(0.5 * 1.0)
        assert rec.min_eig_gamma[-1] == pytest.approx(expected, rel=1e-6)

    def test_origin_is_equilibrium(self):
        scn = sa.build_scenario(sim__t_final=1.0, sim__x0=[0.0, 0.0],
                                gains__kc1=0.0, gains__kc2=0.0, gains__ka1=0.0,
                                gains__beta=0.0)
        rec = sa.run_adp_episode(scn)
        # sigma(0) = 0 and the barrier gradient vanishes near the origin,
        # so the policy is zero and the state stays put
        assert np.max(np.abs(rec.x)) <= 1e-9
        assert rec.J[-1] == pytest.approx(0.0, abs=1e-12)

    def test_gain_matrix_losing_definiteness_is_a_status(self, monkeypatch):
        # a gain law that drains Gamma through zero within about 0.1 s
        monkeypatch.setattr(sa.sim, "gamma_rhs",
                            lambda gains, Gamma, rows: -20.0 * np.eye(len(Gamma)))
        scn = sa.build_scenario(sim__t_final=1.0)
        rec = sa.run_adp_episode(scn)
        assert rec.status == "GAIN_INDEFINITE"
        # the rows run up to the accepted step on which Gamma left PD
        t_cross = GAMMA0 / 20.0
        assert t_cross - scn.sim.dt_out < rec.t[-1] < scn.sim.t_final
        np.testing.assert_allclose(rec.min_eig_gamma, GAMMA0 - 20.0 * rec.t,
                                   rtol=0, atol=1e-9)

    def test_one_bellman_call_per_rhs_evaluation(self, monkeypatch):
        # one batched call per rhs evaluation, one for the excitation
        # history (every redraw after the start's, computed once after the
        # run, since the rhs keeps no history) and one for the output rows;
        # the accept hook makes none
        bellman, integrate = sa.sim.bellman_at, sa.sim.integrate_adaptive
        counts = {"bellman": 0, "rhs": 0}

        def counted_bellman(*args, **kwargs):
            counts["bellman"] += 1
            return bellman(*args, **kwargs)

        def counted_integrate(rhs, *args, **kwargs):
            def counted_rhs(t, y):
                counts["rhs"] += 1
                return rhs(t, y)
            return integrate(counted_rhs, *args, **kwargs)

        monkeypatch.setattr(sa.sim, "bellman_at", counted_bellman)
        monkeypatch.setattr(sa.sim, "integrate_adaptive", counted_integrate)
        rec = sa.run_adp_episode(sa.build_scenario(sim__t_final=3.0))
        assert rec.status == "OK"
        assert counts["rhs"] > 0
        assert counts["bellman"] == counts["rhs"] + 2

    @pytest.mark.parametrize("system", ["single_integrator", "linear"])
    def test_rhs_plant_terms_are_the_model_s(self, monkeypatch, system):
        # the rhs takes x' and the J_quad rate from the on-trajectory row of
        # its Bellman sample: at each recorded state they equal sys.xdot and
        # state_cost + quadratic_input_cost at (x, u) bit for bit
        linear = {"system__kind": "linear", "system__A": [[0.0, 1.0], [-1.0, -0.5]],
                  "system__B": [[0.0], [1.0]], "cost__r_diag": [10.0]}
        scn = sa.build_scenario(sim__t_final=1.0, **(linear if system == "linear" else {}))
        integrate, bellman, got = sa.sim.integrate_adaptive, sa.sim.bellman_at, {}

        def keep(rhs, *args, **kwargs):
            got["rhs"], got["run"] = rhs, integrate(rhs, *args, **kwargs)
            return got["run"]

        def last_sample(*args, **kwargs):
            got["rows"] = bellman(*args, **kwargs)
            return got["rows"]

        monkeypatch.setattr(sa.sim, "integrate_adaptive", keep)
        monkeypatch.setattr(sa.sim, "bellman_at", last_sample)
        assert sa.run_adp_episode(scn).status == "OK"
        sys_, cost, n = scn.system, scn.cost, scn.system.n
        for s in got["run"][1].ys:
            ds = got["rhs"](0.0, s)
            x, u = s[:n], got["rows"].u[0]
            np.testing.assert_array_equal(ds[:n], sys_.xdot(x, u))
            assert ds[-1] == cost.state_cost(x) + cost.quadratic_input_cost(u)

    def test_integrator_work_is_recorded(self, monkeypatch):
        # one record entry per accepted step, at which the hook changed the
        # rhs; every attempt is accepted or rejected
        integrate, dp54 = sa.sim.integrate_adaptive, sa.integrate.dp54_step
        records, attempts = [], []

        def keep(*args, **kwargs):
            records.append(integrate(*args, **kwargs)[1])
            return "OK", records[-1]

        def counted_step(*args, **kwargs):
            attempts.append(None)
            return dp54(*args, **kwargs)

        monkeypatch.setattr(sa.sim, "integrate_adaptive", keep)
        monkeypatch.setattr(sa.integrate, "dp54_step", counted_step)
        rec = sa.run_adp_episode(sa.build_scenario(sim__t_final=5.0))
        ts = records[0].ts
        assert np.all(np.diff(ts) > 0)
        assert rec.accepted_steps == len(ts) - 1 > 0
        # the hook redraws the points at every step, so the derivative out
        # of each recorded time differs from the one into it
        assert all(np.any(a != b) for a, b in zip(records[0].fs_in[1:], records[0].fs_out[1:]))
        assert rec.accepted_steps + rec.rejected_steps == len(attempts)
        # the start, 6 per attempt and 1 after each accepted step's hook
        assert rec.rhs_evals == 1 + 6 * len(attempts) + rec.accepted_steps

    def test_tolerance_reaches_the_integrator(self):
        # one sim.tol sets both the absolute and the relative error scale:
        # a tighter one takes more, shorter steps over the same episode
        evals = {tol: sa.run_adp_episode(sa.build_scenario(sim__tol=tol)).rhs_evals
                 for tol in (1e-5, 1e-7)}
        assert evals[1e-7] > evals[1e-5]

    @pytest.mark.parametrize("x0, seed", [([3.0, 3.5], 0), ([4.323, 1.573], 1)])
    def test_c1_is_read_at_each_redraw(self, monkeypatch, x0, seed):
        # the excitation history, recomputed from the draws: one Bellman
        # evaluation per recorded state after the start, with the points
        # drawn there; the runner's one batched evaluation gives the same bits
        draw, integrate, bellman = (sa.sim.sample_extrapolation_points,
                                    sa.sim.integrate_adaptive, sa.sim.bellman_at)
        draws, runs = [], []

        def kept_draw(*args, **kwargs):
            draws.append(draw(*args, **kwargs))
            return draws[-1]

        def kept_run(*args, **kwargs):
            status, run = integrate(*args, **kwargs)
            runs.append(run)
            return status, run

        monkeypatch.setattr(sa.sim, "sample_extrapolation_points", kept_draw)
        monkeypatch.setattr(sa.sim, "integrate_adaptive", kept_run)
        scn = sa.build_scenario(sim__t_final=5.0, sim__x0=x0, gains__seed=seed)
        rec = sa.run_adp_episode(scn)
        assert rec.status == "OK"
        run, gains = runs[0], scn.gains
        assert len(draws) == len(run.ts) > 10
        lam = []
        for s, pts in zip(run.ys[1:], draws[1:]):
            x, Wc, Wa, _, _, _ = sa.sim._adp_unpack(s, scn.system.n, scn.staf.L)
            lam.append(bellman(np.concatenate((x[None], pts)), x[None], Wc[None], Wa[None],
                               scn.system, scn.cost, scn.barrier, scn.staf, gains).Lambda)
        lam = np.array(lam)
        lam_mean = lam[:, 1:].sum(axis=1) / gains.N
        c1 = np.linalg.eigvalsh(lam_mean)[:, 0]
        np.testing.assert_array_equal(rec.c1, sa.sim._held(run.ts[1:], c1, rec.t, 0.0))
        hist_c1, weak = sa.excitation_history(run.ts[1:], lam, sa.critic.PE_WINDOW)
        np.testing.assert_array_equal(hist_c1, c1)
        assert rec.weak_excitation_flag == weak
        assert len(set(rec.c1)) > 10

    def test_rhs_keeps_no_history(self, monkeypatch):
        # a hook that evaluates the rhs once more, at a state shifted by
        # 1e-3, right after each redraw leaves the run as it was: the rhs
        # is a function of (t, state, current points), and the excitation
        # history is computed after the run
        integrate = sa.sim.integrate_adaptive
        scn = sa.build_scenario(sim__t_final=5.0)
        clean = sa.run_adp_episode(scn)

        def probed(rhs, *args, on_accept, **kwargs):
            def hook(t, s):
                changed = on_accept(t, s)
                rhs(t, s + 1e-3)
                return changed
            return integrate(rhs, *args, on_accept=hook, **kwargs)

        monkeypatch.setattr(sa.sim, "integrate_adaptive", probed)
        rec = sa.run_adp_episode(scn)
        assert rec.status == clean.status == "OK"
        np.testing.assert_array_equal(rec.x, clean.x)
        np.testing.assert_array_equal(rec.c1, clean.c1)
        assert rec.weak_excitation_flag == clean.weak_excitation_flag

    @pytest.mark.parametrize("overrides", [
        {}, {"sim__x0": [3.5, 3.0], "gains__seed": 1},
        {"system__kind": "linear", "system__A": [[0.0, 1.0], [-1.0, 0.0]],
         "system__B": [[1.0, 0.0], [0.0, 1.0]], "gains__seed": 2},
    ], ids=["default", "breach", "rotation"])
    def test_gamma_stays_exactly_symmetric(self, monkeypatch, overrides):
        # gamma_rhs is the only statement of Gamma's symmetry: its
        # derivative is exactly symmetric, the integrator weighs entries
        # (i, j) and (j, i) alike, and the rows are sampled entrywise, so
        # Gamma == Gamma^T bit for bit with no repair in the hook or the rows
        integrate, runs = sa.sim.integrate_adaptive, []

        def kept_run(*args, **kwargs):
            status, run = integrate(*args, **kwargs)
            runs.append(run)
            return status, run

        monkeypatch.setattr(sa.sim, "integrate_adaptive", kept_run)
        scn = sa.build_scenario(**overrides)
        rec = sa.run_adp_episode(scn)
        run, n, L = runs[0], scn.system.n, scn.staf.L
        assert len(run.ts) > 50
        for states in (run.ys, run.fs_in, run.fs_out, run.sample(rec.t)):
            Gamma = sa.sim._adp_unpack(np.array(states), n, L)[3]
            np.testing.assert_array_equal(Gamma, Gamma.transpose(0, 2, 1))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_start_state_layout(self, seed):
        # row 0 is the start state: x0, Wc(0) then Wa(0) from the seed's
        # generator in that order, Gamma(0) = GAMMA0 I and no cost yet
        scn = sa.build_scenario(sim__t_final=1.0, gains__seed=seed)
        rec = sa.run_adp_episode(scn)
        L = scn.staf.L
        rng = np.random.default_rng(seed)
        Wc0, Wa0 = rng.uniform(0.0, 4.0, L), rng.uniform(0.0, 4.0, L)
        np.testing.assert_array_equal(rec.x[0], scn.sim.x0)
        np.testing.assert_array_equal(rec.Wc[0], Wc0)
        np.testing.assert_array_equal(rec.Wa[0], Wa0)
        assert rec.min_eig_gamma[0] == GAMMA0
        assert rec.J[0] == 0.0

    def test_pack_and_unpack_round_trip(self):
        n, L, R = 2, 3, 4
        rng = np.random.default_rng(7)
        blocks = [(rng.normal(size=n), rng.normal(size=L), rng.normal(size=L),
                   rng.normal(size=(L, L)), rng.normal(), rng.normal()) for _ in range(R)]
        packed = [sa.sim._adp_pack(*b) for b in blocks]
        assert packed[0].shape == (n + 2 * L + L * L + 2,)
        rows = np.stack(packed)
        for s, want in [(packed[0], blocks[0]), (rows, [np.array(col) for col in zip(*blocks)])]:
            got = sa.sim._adp_unpack(s, n, L)
            assert len(got) == 6
            for block, expected in zip(got, want):
                np.testing.assert_array_equal(block, expected)
                assert np.shares_memory(block, s)

    def test_rejects_unsafe_start(self):
        # build_scenario refuses this start; a scenario assembled by hand
        # meets the runners' own check
        scn = sa.build_scenario()
        inside = dataclasses.replace(scn.sim, x0=np.array([2.0, 2.5]))
        with pytest.raises(sa.ConfigError, match="sim: x0"):
            sa.build_scenario(sim__x0=[2.0, 2.5])
        for run in (sa.run_adp_episode, sa.run_qp_episode):
            with pytest.raises(ValueError, match="interior of the safe set"):
                run(dataclasses.replace(scn, sim=inside))


class TestQpEpisode:
    def test_completes(self, qp_record):
        assert qp_record.status == "OK"
        assert qp_record.controller == "qp"
        assert sa.summarize(qp_record).status == "OK"

    def test_stays_safe(self, qp_record):
        assert np.min(qp_record.h) >= -1e-6

    def test_input_box(self, qp_record):
        assert np.max(np.abs(qp_record.u)) <= 0.5 + 1e-9

    def test_learner_columns_are_nan(self, qp_record):
        assert np.all(np.isnan(qp_record.Wc))
        assert np.all(np.isnan(qp_record.Vhat))
        assert np.all(np.isnan(qp_record.delta))

    def test_running_cost_nondecreasing(self, qp_record):
        assert np.all(np.diff(qp_record.J) >= -1e-9)

    def test_origin_stays_put(self):
        scn = sa.build_scenario(sim__controller="qp", sim__t_final=1.0,
                                sim__x0=[0.0, 0.0])
        rec = sa.run_qp_episode(scn)
        assert np.max(np.abs(rec.x)) <= 1e-9

    def test_stall_geometry(self, qp_stall_record):
        # collinear start: the baseline deadlocks behind the obstacle
        assert np.linalg.norm(qp_stall_record.x[-1]) > 0.5
        assert np.min(qp_stall_record.h) >= -1e-6

    def test_breach_ends_episode(self):
        # a 2 s hold carries the state through the obstacle
        scn = sa.build_scenario(sim__controller="qp", qp__dt=2.0)
        rec = sa.run_qp_episode(scn)
        assert rec.status == "SAFETY_BREACH"
        assert np.min(rec.h) < 0.0
        assert rec.t[-1] < scn.sim.t_final
        # B is reported as inf exactly on the rows at or past the boundary
        np.testing.assert_array_equal(np.isinf(rec.B), rec.h <= sa.cost.H_MIN)
        finite = np.isfinite(rec.B)
        assert finite.any()
        assert list(rec.B[finite]) == [sa.barrier_B(scn.barrier, x) for x in rec.x[finite]]

    def test_cost_between_holds_is_the_hold_integral(self):
        # qp.dt = 2 dt_out puts every odd row mid-hold, where J is cubic in
        # time: J(t_k + tau) = J_k + tau x'Qx + tau^2 x'Qu + tau^3/3 u'Qu + tau u'Ru
        scn = sa.build_scenario(sim__controller="qp", sim__t_final=2.0, qp__dt=0.02)
        rec = sa.run_qp_episode(scn)
        Q, r = scn.cost.Q, scn.cost.r_diag
        x, u, J = rec.x[0:-1:2], rec.u[0:-1:2], rec.J[0:-1:2]
        tau = rec.t[1::2] - rec.t[0:-1:2]
        quad = lambda a, b: np.einsum("ri,ij,rj->r", a, Q, b)
        exact = (J + tau * quad(x, x) + tau ** 2 * quad(x, u) + tau ** 3 / 3 * quad(u, u)
                 + tau * (u ** 2 @ r))
        np.testing.assert_allclose(rec.J[1::2], exact, rtol=1e-12, atol=0)

    def test_one_integration_per_episode(self, monkeypatch):
        calls = []
        integrate = sa.sim.integrate_adaptive

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(sa.sim, "integrate_adaptive", counted)
        rec = sa.run_qp_episode(sa.build_scenario(sim__controller="qp", sim__t_final=2.0))
        assert rec.status == "OK"
        assert len(calls) == 1

    def test_hooks_are_looked_up_at_call_time(self, monkeypatch):
        # the controller through the sim module (which the benchmark's hold
        # sampler wraps), the QP layers through qpsolve and the step through
        # integrate: each patched name sees every call
        calls = {}

        def counting(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        counting(sa.sim, "qp_controller")
        for name in ("build_qp", "solve_qp", "kkt_ok"):
            counting(sa.qpsolve, name)
        counting(sa.integrate, "dp54_step")
        rec = sa.run_qp_episode(sa.build_scenario(sim__controller="qp", sim__t_final=2.0))
        assert rec.status == "OK"
        assert calls["qp_controller"] == calls["build_qp"] == calls["solve_qp"] == 200
        assert calls["kkt_ok"] >= 200
        assert calls["dp54_step"] == rec.accepted_steps + rec.rejected_steps
        assert rec.rhs_evals == 7 * 200

    def test_last_partial_hold_reaches_t_final(self):
        # qp.dt = 0.3 does not divide 25 s: the last hold runs 24.9 -> 25
        scn = sa.build_scenario(sim__controller="qp", qp__dt=0.3)
        rec = sa.run_qp_episode(scn)
        assert rec.status == "OK"
        assert len(rec.t) == 2501
        assert rec.t[-1] == scn.sim.t_final
        np.testing.assert_array_equal(rec.u[-1], rec.u[rec.t >= 24.9 - 1e-9][0])

    @pytest.mark.parametrize("key", ["qp.dt", "sim.dt_out"])
    @pytest.mark.parametrize("factor", [2.01, 2.5, 4.0])
    def test_steps_just_above_the_bound_lose_no_hold_or_row(self, monkeypatch, key, factor):
        # a step above twice the landing tolerance at t_final, which the
        # config admits: the QP is solved at every hold time of its grid,
        # and the rows are the row grid
        t_final = 1e-10
        solves, qp_controller = [], sa.sim.qp_controller

        def counted(*args):
            solves.append(args[1])
            return qp_controller(*args)

        monkeypatch.setattr(sa.sim, "qp_controller", counted)
        step = factor * float(sa.integrate._edge(t_final))
        scn = sa.build_scenario(sim__controller="qp", sim__t_final=t_final,
                                **{key.replace(".", "__"): step})
        rec = sa.run_qp_episode(scn)
        assert rec.status == "OK"
        assert len(solves) == len(sa.sim._output_grid(scn.qp.dt, t_final)) - 1
        np.testing.assert_array_equal(rec.t, sa.sim._output_grid(scn.sim.dt_out, t_final))

    def test_hold_longer_than_the_run(self):
        # qp.dt so far past t_final that no multiple of it but 0 lies below
        # it: the start is still a hold, and its input is the one reported
        scn = sa.build_scenario(sim__controller="qp", sim__t_final=1.0, qp__dt=1e12)
        rec = sa.run_qp_episode(scn)
        assert rec.status == "OK" and rec.t[-1] == 1.0
        np.testing.assert_allclose(rec.u, np.full((101, 2), -0.5), rtol=0, atol=1e-12)
        np.testing.assert_allclose(rec.x, scn.sim.x0 - 0.5 * rec.t[:, None], rtol=0, atol=1e-12)

    def test_infeasible_first_solve_reports_the_start(self, monkeypatch):
        def infeasible(*_args):
            raise sa.QpInfeasible("box and CBF rows conflict")

        monkeypatch.setattr(sa.sim, "qp_controller", infeasible)
        scn = sa.build_scenario(sim__controller="qp")
        rec = sa.run_qp_episode(scn)
        assert rec.status == "QP_INFEASIBLE"
        assert sa.summarize(rec).status == "QP_INFEASIBLE"
        np.testing.assert_array_equal(rec.x, [scn.sim.x0])
        assert list(rec.t) == [0.0] and list(rec.J) == [0.0]
        np.testing.assert_array_equal(rec.u, np.zeros((1, 2)))

    @pytest.mark.parametrize("good_solves", [0, 10])
    def test_solver_failure_is_a_status(self, monkeypatch, good_solves):
        # from the (good_solves + 1)-th solve on, the solver's point fails
        # the KKT check; the rows run up to the hold time of that solve
        kkt_ok, calls = sa.qpsolve.kkt_ok, []

        def fails_later(*args, **kwargs):
            calls.append(None)
            return len(calls) <= good_solves and kkt_ok(*args, **kwargs)

        monkeypatch.setattr(sa.qpsolve, "kkt_ok", fails_later)
        scn = sa.build_scenario(sim__controller="qp")
        rec = sa.run_qp_episode(scn)
        assert rec.status == "QP_SOLVER_FAILED"
        assert sa.summarize(rec).status == "QP_SOLVER_FAILED"
        assert rec.t[-1] == pytest.approx(good_solves * scn.qp.dt, abs=1e-12)
        np.testing.assert_array_equal(rec.x[0], scn.sim.x0)

    @pytest.mark.parametrize("x0", [[3.0, 3.5], [3.0, 3.0]])
    def test_warm_solves_equal_cold_solves(self, monkeypatch, x0):
        # every hold's warm-started solve against a cold solve of its QP,
        # and the rounding bounds of its KKT check
        solve_qp, starts = sa.qpsolve.solve_qp, []

        def both(prob, *args, **kwargs):
            warm, cold = solve_qp(prob, *args, **kwargs), solve_qp(prob)
            # at the controller's scale the KKT check's rounding allowance
            # never exceeds its absolute tolerance
            bounds = sa.qpsolve.rounding_bounds(prob, warm.v_star, warm.multipliers)
            assert max(bounds.values()) < sa.qpsolve.KKT_TOL
            assert warm.active_set == cold.active_set
            np.testing.assert_array_equal(warm.v_star, cold.v_star)
            np.testing.assert_array_equal(warm.multipliers, cold.multipliers)
            starts.append((kwargs["start"], warm.iterations))
            return warm

        monkeypatch.setattr(sa.qpsolve, "solve_qp", both)
        scn = sa.build_scenario(sim__controller="qp", sim__t_final=2.0, sim__x0=x0)
        rec = sa.run_qp_episode(scn)
        assert rec.status == "OK" and len(starts) == 200
        assert starts[0][0] == () and starts[0][1] > 0  # the first hold is cold
        assert rec.qp_iterations == sum(it for _, it in starts)
        assert rec.qp_cold_solves == sum(it > 0 for _, it in starts) < 10

    @pytest.mark.parametrize("x0", [[3.0, 3.5], [3.0, 3.0]])
    def test_every_hold_builds_the_one_shot_problem(self, monkeypatch, x0):
        # each hold's problem, built from the episode's ControllerQp, against
        # build_qp on a freshly built ControllerQp at that state, bit for bit
        build_qp, ctrls = sa.qpsolve.build_qp, []

        def both(ctrl, x):
            prob = build_qp(ctrl, x)
            fresh = build_qp(sa.ControllerQp(scn.system, scn.safeset, scn.cost, scn.qp), x)
            for name in ("H", "c_lin", "A", "b"):
                np.testing.assert_array_equal(getattr(prob, name), getattr(fresh, name))
            ctrls.append(ctrl)
            return prob

        monkeypatch.setattr(sa.qpsolve, "build_qp", both)
        scn = sa.build_scenario(sim__controller="qp", sim__t_final=2.0, sim__x0=x0)
        assert sa.run_qp_episode(scn).status == "OK"
        assert len(ctrls) == 200
        assert all(ctrl is ctrls[0] for ctrl in ctrls)  # one ControllerQp per episode

    def test_a_solution_outlives_the_next_hold(self, monkeypatch):
        # every hold's problem and solution, compared after the episode
        # with copies taken when they were returned
        solve_qp, kept = sa.qpsolve.solve_qp, []

        def keep(prob, *args, **kwargs):
            sol = solve_qp(prob, *args, **kwargs)
            kept.append((prob, sol, copy.deepcopy((prob, sol))))
            return sol

        monkeypatch.setattr(sa.qpsolve, "solve_qp", keep)
        scn = sa.build_scenario(sim__controller="qp", sim__t_final=2.0)
        assert sa.run_qp_episode(scn).status == "OK"
        for (prob, sol, (prob0, sol0)), (later, _, _) in zip(kept, kept[1:]):
            assert not np.shares_memory(prob.A, later.A)
            assert not np.shares_memory(prob.b, later.b)
            for name in ("A", "b"):
                np.testing.assert_array_equal(getattr(prob, name), getattr(prob0, name))
            for name in ("v_star", "multipliers"):
                np.testing.assert_array_equal(getattr(sol, name), getattr(sol0, name))
            assert sol.active_set == sol0.active_set

    def test_integrator_work_is_recorded(self, qp_record, qp_stall_record):
        # one DP5 step per hold: 1 evaluation at the start, 6 per step and
        # 1 at each of the 2,499 holds after the first
        for rec in (qp_record, qp_stall_record):
            assert rec.accepted_steps == 2500
            assert rec.rhs_evals == 1 + 6 * 2500 + 2499 == 17500
            assert rec.rejected_steps == 0

    def test_solver_work_is_recorded(self, qp_record, qp_stall_record, adp_record):
        # the first hold is solved cold, and the default episode's active
        # set changes 4 times in its 2,500 holds
        assert 1 <= qp_record.qp_cold_solves <= 5
        assert qp_record.qp_iterations >= qp_record.qp_cold_solves
        assert qp_stall_record.qp_cold_solves == 1
        assert adp_record.qp_iterations == adp_record.qp_cold_solves == 0

    def test_held_input_meets_the_cbf_row(self, qp_record, qp_stall_record):
        # with dt_out == qp.dt every row but the last (t_final) is a hold
        # time, where the input was solved at that very state, so the row
        # holds there to the solver's tolerance; off a hold time it may dip
        # slightly below zero
        runs = ((sa.build_scenario(sim__controller="qp"), qp_record),
                (sa.build_scenario(sim__controller="qp", sim__x0=[3.0, 3.0]), qp_stall_record))
        for scn, rec in runs:
            assert rec.status == "OK" and scn.sim.dt_out == scn.qp.dt
            margin = _cbf_margin(scn, rec)
            assert margin.min() >= -0.05
            assert margin[:-1].min() >= -1e-9

    def test_deterministic(self, qp_record):
        scn = sa.build_scenario(sim__controller="qp")
        again = sa.run_qp_episode(scn)
        np.testing.assert_array_equal(qp_record.x, again.x)
        np.testing.assert_array_equal(qp_record.u, again.u)


def _cbf_margin(scn, rec):
    # the CBF condition a + b u of Proposition 1 at each row's state and
    # held input, with the scenario's alpha_scale
    a, b = sa.cbf_condition(scn.safeset, scn.qp.alpha_scale, scn.system, rec.x)
    return a + np.vecdot(b, rec.u)


class TestDiagnostics:
    def test_prop1_on_qp_run(self, qp_record):
        # the applied (held) input satisfies the CBF row at the solve
        # state; between solves the margin can dip slightly below zero
        scn = sa.build_scenario(sim__controller="qp")
        assert _cbf_margin(scn, qp_record).min() >= -0.05

    def test_prop1_takes_alpha_scale_from_the_scenario(self):
        # the QP imposes the row with the scenario's alpha_scale: at every
        # hold row it holds for alpha_scale = 2 to the solver's tolerance
        scn = sa.build_scenario(sim__controller="qp", qp__alpha_scale=2.0)
        rec = sa.run_qp_episode(scn)
        assert rec.status == "OK" and scn.qp.alpha_scale == 2.0
        assert scn.sim.dt_out == scn.qp.dt
        margin = _cbf_margin(scn, rec)
        assert margin.min() >= -0.05
        assert margin[:-1].min() >= -1e-9


class TestDispatchAndSummary:
    def test_dispatch(self):
        scn = sa.build_scenario(sim__t_final=0.5)
        assert sa.run_episode(scn).controller == "adp"
        scn = sa.build_scenario(sim__controller="qp", sim__t_final=0.5)
        assert sa.run_episode(scn).controller == "qp"

    def test_summarize_consistency(self, adp_record):
        rep = sa.summarize(adp_record)
        assert rep.min_h == float(np.min(adp_record.h))
        assert rep.terminal_x_norm == float(np.linalg.norm(adp_record.x[-1]))
        assert rep.max_u_inf == float(np.max(np.abs(adp_record.u)))
        assert rep.total_J == float(adp_record.J[-1])
        d = rep.as_dict()
        assert d["controller"] == "adp"
        assert d["status"] == "OK"

    def test_summary_handles_all_nan_delta(self, qp_record):
        rep = sa.summarize(qp_record)
        assert np.isnan(rep.mean_abs_delta_early)
        assert np.isnan(rep.mean_abs_delta_late)


class TestOutputRows:
    @pytest.mark.parametrize("controller", ["adp", "qp"])
    @pytest.mark.parametrize("t_final, dt_out", [(1.0, 0.03), (0.005, 0.01)])
    def test_last_row_is_t_final(self, controller, t_final, dt_out):
        # dt_out does not divide t_final: the rows are the multiples of
        # dt_out below it and then t_final, where J and the summary are read
        scn = sa.build_scenario(sim__controller=controller, sim__t_final=t_final,
                                sim__dt_out=dt_out)
        rec = sa.run_episode(scn)
        assert rec.status == "OK"
        k = int(t_final / dt_out)
        np.testing.assert_array_equal(rec.t, np.append(np.arange(k + 1) * dt_out, t_final))
        assert rec.J[-1] > rec.J[-2]
        rep = sa.summarize(rec)
        assert rep.total_J == rec.J[-1]
        assert rep.terminal_x_norm == np.linalg.norm(rec.x[-1]) < np.linalg.norm(scn.sim.x0)

    @pytest.mark.parametrize("controller", ["adp", "qp"])
    def test_rows_end_at_the_first_row_inside_the_obstacle(self, monkeypatch, controller):
        # the runner's own integration, with the plant state moved onto the
        # straight path x0 + v t, which enters the obstacle at t = 0.2227
        # between two recorded times; the integrator reports OK
        integrate, runs, v = sa.sim.integrate_adaptive, [], np.array([-2.0, -3.0])

        def through(*args, **kwargs):
            status, real = integrate(*args, **kwargs)
            rec = sa.integrate.StepRecord()
            for t, y, f_in, f_out in zip(real.ts, real.ys, real.fs_in, real.fs_out):
                y, f_in, f_out = y.copy(), f_in.copy(), f_out.copy()
                y[:2], f_in[:2], f_out[:2] = np.array([3.0, 3.5]) + v * t, v, v
                rec.append(t, y, f_in, f_out)
            rec.rhs_evals, rec.rejected_steps = real.rhs_evals, real.rejected_steps
            runs.append(rec)
            return status, rec

        monkeypatch.setattr(sa.sim, "integrate_adaptive", through)
        scn = sa.build_scenario(sim__controller=controller, sim__t_final=1.0)
        rec = sa.run_episode(scn)
        run = runs[0]
        assert not any(0.22 < t < 0.23 for t in run.ts)
        assert rec.status == "SAFETY_BREACH"
        np.testing.assert_array_equal(rec.t, np.arange(24) * 0.01)
        assert rec.h[-1] < 0.0 <= rec.h[:-1].min()
        np.testing.assert_allclose(rec.x, [3.0, 3.5] + rec.t[:, None] * v, rtol=0, atol=1e-12)
        for name in ("u", "B", "Vhat", "delta", "Wc", "Wa", "min_eig_gamma", "c1", "J"):
            assert len(getattr(rec, name)) == 24
        assert np.isinf(rec.B[-1]) and np.all(np.isfinite(rec.B[:-1]))
        # the work counters still describe the whole integration
        assert run.ts[-1] == 1.0 and rec.accepted_steps == len(run.ts) - 1 > 0
        rep = sa.summarize(rec)
        assert rep.status == "SAFETY_BREACH" and rep.min_h == rec.h[-1]

    def test_early_end_is_the_last_row(self, monkeypatch):
        # a run that ends between two multiples of dt_out reports the time
        # and state it stopped at as its last row; a run whose rows reach
        # h < 0 ends at the first such row
        integrate, runs = sa.sim.integrate_adaptive, []

        def kept(*args, **kwargs):
            status, record = integrate(*args, **kwargs)
            runs.append(record)
            return status, record

        monkeypatch.setattr(sa.sim, "integrate_adaptive", kept)
        # ADP: a gain law that drains Gamma through zero near t = 0.05 s
        monkeypatch.setattr(sa.sim, "gamma_rhs",
                            lambda gains, Gamma, rows: -20.0 * np.eye(len(Gamma)))
        adp = sa.run_adp_episode(sa.build_scenario(sim__t_final=1.0))
        assert adp.status == "GAIN_INDEFINITE"
        assert adp.min_eig_gamma[-1] <= 0.0  # the state that left PD is reported
        t_end, n = runs[0].ts[-1], adp.x.shape[1]
        assert adp.t[-2] + 1e-9 < t_end == adp.t[-1] < 25.0
        np.testing.assert_array_equal(adp.t[:-1], np.arange(len(adp.t) - 1) * 0.01)
        np.testing.assert_array_equal(adp.x[-1], runs[0].ys[-1][:n])
        assert sa.summarize(adp).total_J == adp.J[-1]
        # QP: a 2 s hold carries the state through the obstacle; the hook
        # ends the run at the hold's end, t = 2, and the rows at the first
        # multiple of dt_out inside the obstacle
        qp = sa.run_qp_episode(sa.build_scenario(sim__controller="qp", qp__dt=2.0))
        assert qp.status == "SAFETY_BREACH"
        assert qp.h[-1] < 0.0 <= qp.h[:-1].min()
        assert runs[1].ts[-1] == 2.0 and qp.t[-1] == pytest.approx(1.18, abs=1e-12)
        np.testing.assert_array_equal(qp.t, np.arange(len(qp.t)) * 0.01)
        np.testing.assert_array_equal(qp.x[-1], runs[1].sample(qp.t[-1:])[0, :n])
        assert sa.summarize(qp).total_J == qp.J[-1]

    def test_a_row_at_a_hold_time_reads_its_input_at_long_horizons(self):
        # hold times k * 0.05 and rows j * 0.01 around t = 1e5, the values
        # np.arange gives there, where one ulp of t is 1.5e-11: a row that
        # rounds below its hold time by less than the landing tolerance
        # still reads that hold's input, here its index k
        k = np.arange(2_000_000 - 200, 2_000_000 + 200)
        j = np.arange(5 * k[0], 5 * (k[-1] + 1))
        held = sa.sim._held(k * 0.05, k, j * 0.01, 0)
        np.testing.assert_array_equal(held, j // 5)


class TestMirrorSymmetry:
    """A mirror image of the geometry gives the mirror image of the run.
    The StaF offsets are mirrored with the state. Every pair runs at
    gains.kc2 = 0, which only ADP reads: the extrapolation points are
    drawn in the state's own coordinates, so a run and its mirror draw
    different points, and with the default kc2 the reflected ADP pair
    differs by up to 0.02 in x and 0.41 in J."""

    OFFSETS = np.array(DEFAULTS["staf.offsets"])

    @staticmethod
    def _run(controller, **overrides):
        t_final = 25.0 if controller == "adp" else 10.0
        return sa.run_episode(sa.build_scenario(sim__controller=controller, sim__t_final=t_final,
                                                gains__kc2=0.0, **overrides))

    def _check_swap(self, controller, tol, x0, **plant):
        a = self._run(controller, sim__x0=x0, staf__offsets=self.OFFSETS.tolist(), **plant)
        b = self._run(controller, sim__x0=x0[::-1], staf__offsets=self.OFFSETS[:, ::-1].tolist(),
                      **plant)
        assert a.status == b.status == "OK" and len(a.t) == len(b.t)
        for name in ("x", "u"):
            np.testing.assert_allclose(getattr(a, name), getattr(b, name)[:, ::-1], rtol=0,
                                       atol=tol, err_msg=name)

    @pytest.mark.parametrize("controller", ["adp", "qp"])
    def test_reflection_in_the_x1_axis_is_exact(self, controller):
        # obstacle on the x1 axis: negation is exact and commutes with every
        # operation on x2, so the rows agree bit for bit (c1, which reads the
        # drawn points, is left out)
        center = [2.0 * np.sqrt(2.0), 0.0]
        a = self._run(controller, safeset__center=center, sim__x0=[4.5, 0.7],
                      staf__offsets=self.OFFSETS.tolist())
        b = self._run(controller, safeset__center=center, sim__x0=[4.5, -0.7],
                      staf__offsets=(self.OFFSETS * [1.0, -1.0]).tolist())
        assert a.status == b.status == "OK" and len(a.t) == len(b.t)
        for name in ("h", "B", "J", "Wc", "Wa", "Vhat", "delta", "min_eig_gamma"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
        for name in ("x", "u"):
            np.testing.assert_array_equal(getattr(a, name) * [1.0, -1.0], getattr(b, name))

    @pytest.mark.parametrize("controller, tol", [("qp", 1e-12), ("adp", 1e-8)], ids=["qp", "adp"])
    @pytest.mark.parametrize("x0", [[3.0, 3.5], [4.0, 2.6]], ids=["3,3.5", "4,2.6"])
    def test_swapping_the_coordinates(self, controller, tol, x0):
        # the default obstacle sits on the diagonal; x1 <-> x2 reorders sums,
        # so the runs agree to rounding (QP max |dx| 8e-15, ADP 4e-10)
        self._check_swap(controller, tol, x0)

    @pytest.mark.parametrize("controller, tol", [("qp", 1e-12), ("adp", 1e-7)], ids=["qp", "adp"])
    @pytest.mark.parametrize("x0", [[3.0, 3.5], [4.0, 2.6]], ids=["3,3.5", "4,2.6"])
    def test_swapping_the_coordinates_on_a_coupled_plant(self, controller, tol, x0):
        # A = [[-0.1, 0.05], [0.05, -0.1]] and B = I commute with the swap.
        # The coupling carries rounding from one coordinate into the other,
        # so ADP needs 1e-7, not the 1e-8 of the uncoupled plant (measured
        # max |dx| 1.2e-8 and |du| 1.2e-8 from [3, 3.5]; QP 1.8e-15 and 9.7e-15)
        self._check_swap(controller, tol, x0, system__kind="linear",
                         system__A=[[-0.1, 0.05], [0.05, -0.1]],
                         system__B=[[1.0, 0.0], [0.0, 1.0]])

    def test_diagonal_start_stays_on_the_diagonal(self, qp_stall_record):
        # from [3, 3] every row has x1 = x2 and u1 = u2 bit for bit: the QP
        # stalls on the obstacle-origin line
        rec = qp_stall_record
        np.testing.assert_array_equal(rec.x[:, 0], rec.x[:, 1])
        np.testing.assert_array_equal(rec.u[:, 0], rec.u[:, 1])


# a fixed scan: ADP from the benchmark's four states at radius 4.6, the
# default start and the stall state on the obstacle-origin line, at
# gains.seed 0-3, and the QP from the same six starts (it draws nothing)
SCAN_STARTS = ([4.323, 1.573], [3.984, 2.3], [2.3, 3.984], [1.573, 4.323], [3.0, 3.5], [3.0, 3.0])
SCAN = ([("adp", x0, seed) for x0 in SCAN_STARTS for seed in range(4)]
        + [("qp", x0, 0) for x0 in SCAN_STARTS])


@pytest.mark.parametrize("controller, x0, seed", SCAN,
                         ids=[f"{c} {x0} seed {s}" for c, x0, s in SCAN])
def test_cost_meets_the_obstacle_free_optima_over_a_seed_scan(controller, x0, seed):
    # by dynamic programming, a run whose input stays in the box pays at
    # least the obstacle-free optimum: J(t) + V_q(x(t)) >= V_q(x0) on every
    # row, and for ADP, whose input is the saturating policy,
    # j_native_total + V_nat(x_T) >= V_nat(x0); the obstacle and the
    # barrier term only add cost. A violation is a wrong cost integral or
    # an input outside the box
    scn = sa.build_scenario(sim__controller=controller, sim__x0=x0, gains__seed=seed)
    rec = sa.run_episode(scn)
    v0 = box_quadratic_value(scn.cost, scn.sim.x0)
    margin = rec.J + box_quadratic_value(scn.cost, rec.x) - v0
    assert margin.min() >= -1e-12 * v0, (int(margin.argmin()), margin.min(), v0)
    if controller == "adp":
        n0 = box_native_value(scn.cost, scn.sim.x0)
        native = rec.j_native_total + box_native_value(scn.cost, rec.x[-1]) - n0
        assert native >= -1e-12 * n0, (native, n0)
