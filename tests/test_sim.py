import copy
import dataclasses
import time

import numpy as np
import pytest

import safeadp as sa


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
        assert adp_record.gamma_eig_min > 0.0

    def test_weights_bounded(self, adp_record, default_scenario):
        bound = default_scenario.gains.wa_bound * np.sqrt(1.05)
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
        expected = scn.gains.gamma0 * np.exp(0.5 * 1.0)
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
        t_cross = scn.gains.gamma0 / 20.0
        assert t_cross - scn.sim.dt_out < rec.t[-1] < scn.sim.t_final
        np.testing.assert_allclose(rec.min_eig_gamma, scn.gains.gamma0 - 20.0 * rec.t,
                                   rtol=0, atol=1e-9)

    def test_one_bellman_call_per_rhs_evaluation(self, monkeypatch):
        # one batched call per rhs evaluation, one for the excitation
        # history of all accepted steps and one for the output rows; the
        # accept hook makes none
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

    def test_integrator_work_is_recorded(self, monkeypatch):
        # accepted steps are the distinct recorded times after the first;
        # every attempt is accepted or rejected
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
        assert len(ts) > len(set(ts))  # the junction rule records states twice
        assert rec.accepted_steps == len(set(ts)) - 1
        assert rec.accepted_steps + rec.rejected_steps == len(attempts)
        # the start, 6 per attempt and 1 after each accepted step's hook
        assert rec.rhs_evals == 1 + 6 * len(attempts) + rec.accepted_steps

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
        assert qp_record.infeasible_events == 0

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

    def test_last_partial_hold_reaches_t_final(self):
        # qp.dt = 0.3 does not divide 25 s: the last hold runs 24.9 -> 25
        scn = sa.build_scenario(sim__controller="qp", qp__dt=0.3)
        rec = sa.run_qp_episode(scn)
        assert rec.status == "OK"
        assert len(rec.t) == 2501
        assert rec.t[-1] == scn.sim.t_final
        np.testing.assert_array_equal(rec.u[-1], rec.u[rec.t >= 24.9 - 1e-9][0])

    def test_infeasible_first_solve_reports_the_start(self, monkeypatch):
        def infeasible(*_args):
            raise sa.QpInfeasible("box and CBF rows conflict")

        monkeypatch.setattr(sa.sim, "qp_controller", infeasible)
        scn = sa.build_scenario(sim__controller="qp")
        rec = sa.run_qp_episode(scn)
        assert rec.status == "QP_INFEASIBLE"
        assert rec.infeasible_events == 1
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
        assert rec.infeasible_events == 0
        assert rec.t[-1] == pytest.approx(good_solves * scn.qp.dt, abs=1e-12)
        np.testing.assert_array_equal(rec.x[0], scn.sim.x0)

    @pytest.mark.parametrize("x0", [[3.0, 3.5], [3.0, 3.0]])
    def test_warm_solves_equal_cold_solves(self, monkeypatch, x0):
        # every hold's warm-started solve against a cold solve of its QP
        solve_qp, starts = sa.qpsolve.solve_qp, []

        def both(prob, *args, **kwargs):
            warm, cold = solve_qp(prob, *args, **kwargs), solve_qp(prob)
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

    def test_deterministic(self, qp_record):
        scn = sa.build_scenario(sim__controller="qp")
        again = sa.run_qp_episode(scn)
        np.testing.assert_array_equal(qp_record.x, again.x)
        np.testing.assert_array_equal(qp_record.u, again.u)


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


class TestDiagnostics:
    def test_prop1_on_adp_run(self, adp_record, default_scenario):
        diag = sa.prop1_diagnostics(adp_record, default_scenario)
        assert diag["min_h"] > 0.0
        assert len(diag["cbf_margin"]) == len(adp_record.t)
        assert diag["h"] is adp_record.h

    def test_prop1_on_qp_run(self, qp_record, default_scenario):
        diag = sa.prop1_diagnostics(qp_record, default_scenario)
        # the applied (held) input satisfies the CBF row at the solve
        # state; between solves the margin can dip slightly below zero
        assert diag["min_cbf_margin"] >= -0.05

    def test_prop1_takes_alpha_scale_from_the_scenario(self):
        scn = sa.build_scenario(sim__controller="qp", sim__t_final=1.0, qp__alpha_scale=2.0)
        rec = sa.run_qp_episode(scn)
        diag = sa.prop1_diagnostics(rec, scn)
        expected = [sa.cbf_margin(scn.system, scn.safeset, 2.0, x, u)
                    for x, u in zip(rec.x, rec.u)]
        assert list(diag["cbf_margin"]) == expected
        assert diag["min_cbf_margin"] >= -0.05
