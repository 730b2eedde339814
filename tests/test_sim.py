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
        # the accept hook ends the run GAIN_INDEFINITE at the first step
        # whose Gamma is not positive definite
        assert adp_record.status == "OK"

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
        assert sa.summarize(qp_record).infeasible_events == 0

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
        assert sa.summarize(rec).infeasible_events == 1
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
        assert sa.summarize(rec).infeasible_events == 0
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
    a, b = sa.cbf_condition(scn.safeset, scn.qp.alpha_scale, rec.x,
                            scn.system.drift(rec.x), scn.system.input_map(rec.x))
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

    def test_early_end_is_the_last_row(self, monkeypatch):
        # a run that ends between two multiples of dt_out reports the time
        # and state it stopped at as its last row
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
        # QP: a 2 s hold carries the state through the obstacle
        qp = sa.run_qp_episode(sa.build_scenario(sim__controller="qp", qp__dt=2.0))
        assert qp.status == "SAFETY_BREACH"
        assert qp.h[-1] < 0.0
        for rec, run in zip((adp, qp), runs):
            t_end, n = run.ts[-1], rec.x.shape[1]
            assert rec.t[-2] + 1e-9 < t_end == rec.t[-1] < 25.0
            np.testing.assert_array_equal(rec.t[:-1], np.arange(len(rec.t) - 1) * 0.01)
            np.testing.assert_array_equal(rec.x[-1], run.ys[-1][:n])
            assert sa.summarize(rec).total_J == rec.J[-1]

