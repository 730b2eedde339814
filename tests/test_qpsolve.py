import math

import numpy as np
import pytest

import safeadp as sa
from safeadp.errors import QpInfeasible, QpSolverFailed
from safeadp.oracles import enumerate_qp, random_qp
from safeadp.qpsolve import kkt_ok


@pytest.fixture()
def sys_():
    return sa.build_scenario().system


@pytest.fixture()
def params():
    return sa.build_scenario().qp


@pytest.fixture()
def ctrl(sys_, safeset, cost_spec, params):
    return sa.ControllerQp(sys_, safeset, cost_spec, params)


class TestBuild:
    def test_shapes(self, ctrl):
        prob = sa.build_qp(ctrl, np.array([3.0, 3.5]))
        assert prob.d == 3
        assert prob.k == 6
        np.testing.assert_allclose(prob.H, np.diag([10.0, 10.0, 2.0]))
        np.testing.assert_allclose(prob.c_lin, np.zeros(3))

    def test_box_rows(self, ctrl):
        prob = sa.build_qp(ctrl, np.array([-1.0, -1.0]))
        np.testing.assert_allclose(prob.b[2:], 0.5)
        np.testing.assert_allclose(prob.A[2:, 2], 0.0)

    def test_phi_column_only_in_clf_row(self, ctrl):
        prob = sa.build_qp(ctrl, np.array([1.0, -1.0]))
        assert prob.A[1, 2] == -1.0
        assert np.all(prob.A[[0, 2, 3, 4, 5], 2] == 0.0)


    def test_state_rows_are_the_lie_derivatives(self, safeset, cost_spec, params):
        # rows 0 and 1 against L_f h, L_g h, L_f V and L_g V written out,
        # on a system with drift and a state-independent input map
        lin = sa.SystemModel(A=np.array([[0.0, 1.0], [-1.0, -0.5]]),
                             B=np.array([[0.0, 0.3], [1.0, 0.2]]))
        Q = np.array([[2.0, 0.5], [0.5, 1.0]])
        cost = sa.CostSpec(Q=Q, r_diag=cost_spec.r_diag, u_max=cost_spec.u_max)
        lin_ctrl = sa.ControllerQp(lin, safeset, cost, params)
        rng = np.random.default_rng(38)
        for x in rng.uniform(-4, 6, size=(50, 2)):
            if np.linalg.norm(x - safeset.center) < 0.1:
                continue
            f, g, gh = lin.A @ x, lin.B, safeset.h_grad(x)[1]
            gV = 2.0 * Q @ x
            prob = sa.build_qp(lin_ctrl, x)
            tol = dict(rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(prob.A[0, :2], -(gh @ g), **tol)
            np.testing.assert_allclose(prob.b[0], gh @ f + params.alpha_scale * safeset.h(x), **tol)
            np.testing.assert_allclose(prob.A[1, :2], gV @ g, **tol)
            np.testing.assert_allclose(prob.b[1], -(gV @ f) - params.gamma_scale * (x @ Q @ x),
                                       **tol)
            assert prob.A[0, 2] == 0.0 and prob.A[1, 2] == -1.0

    def test_controller_checks_h_once(self, ctrl, monkeypatch):
        checks = []
        monkeypatch.setattr(sa.QpProblem, "__post_init__", lambda prob: checks.append(prob))
        probs = [sa.build_qp(ctrl, x) for x in ([3.0, 3.5], [1.0, 0.0])]
        assert checks == []
        assert probs[0].H is probs[1].H is ctrl.problem.H


class TestController:
    def test_origin_gives_zero(self, ctrl):
        # CLF row at x = 0 is 0 <= 0, so the unconstrained minimum v = 0 wins
        u, sol = sa.qp_controller(ctrl, np.zeros(2))
        np.testing.assert_allclose(u, 0.0, atol=1e-9)
        assert sol.active_set == ()

    def test_known_point(self, ctrl):
        # x = (1, 0): h ~ 1.236 so the CBF row is slack; the CLF row
        # LgV u - phi <= -gamma V forces motion toward the origin
        x = np.array([1.0, 0.0])
        u, sol = sa.qp_controller(ctrl, x)
        assert u[0] < 0.0
        assert abs(u[1]) <= 1e-9
        prob = sa.build_qp(ctrl, x)
        assert kkt_ok(prob, sol.v_star, sol.multipliers)
        # CLF row active: phi picks up whatever the box leaves uncovered
        assert 1 in sol.active_set

    def test_kkt_invariant_random_states(self, ctrl, sys_, safeset, params):
        rng = np.random.default_rng(30)
        for _ in range(100):
            x = rng.uniform(-4, 6, size=2)
            if np.linalg.norm(x - safeset.center) < safeset.radius + 0.02:
                continue
            u, sol = sa.qp_controller(ctrl, x)
            assert np.all(np.abs(u) <= 0.5 + 1e-9)
            prob = sa.build_qp(ctrl, x)
            assert kkt_ok(prob, sol.v_star, sol.multipliers)
            gh = safeset.h_grad(x)[1]
            assert float(gh @ (sys_.B @ u)) + params.alpha_scale * safeset.h(x) >= -1e-8

    def test_infeasible_without_relaxation(self, ctrl, safeset):
        # just outside the disk, heading constraints clash once phi is
        # pinned to zero: CLF demands a large descent the box cannot give
        x = safeset.center + np.array([0.0, safeset.radius + 0.01])
        prob = sa.build_qp(ctrl, x)
        A = np.vstack([prob.A, [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        b = np.concatenate([prob.b, [0.0, 0.0]])  # force phi = 0
        rigid = sa.QpProblem(H=prob.H, c_lin=prob.c_lin, A=A, b=b)
        with pytest.raises(QpInfeasible):
            sa.solve_qp(rigid)
        sa.solve_qp(prob)  # the relaxed problem has an optimum: no raise

    def test_cold_point_breaking_a_box_row_fails(self):
        # the unstable plant xdot = 5 x + u runs away from the default start;
        # at the hold t = 2.38 (|x| ~ 6.6e5) the dual loop's final solve
        # breaks a box row by ~1.3e-9 > SOLVE_TOL, which the KKT check's
        # rounding bound, scaled by the CLF row, would let through: the run
        # ends there rather than hold an input outside the box
        scn = sa.build_scenario(system__kind="linear", system__A=[[5.0, 0.0], [0.0, 5.0]],
                                system__B=[[1.0, 0.0], [0.0, 1.0]], sim__controller="qp",
                                sim__t_final=2.5)
        rec = sa.run_episode(scn)
        assert rec.status == "QP_SOLVER_FAILED"
        assert rec.t[-1] == pytest.approx(2.38)
        assert np.abs(rec.u).max() <= scn.cost.u_max + sa.qpsolve.SOLVE_TOL

    def test_raises_on_infeasible(self, safeset):
        # from inside the obstacle a small input box cannot restore the
        # hard CBF row, so the controller must raise
        tiny = sa.single_integrator()
        tiny_cost = sa.CostSpec(Q=np.eye(2), r_diag=np.array([10.0, 10.0]),
                                u_max=0.1)
        params = sa.build_scenario().qp
        x = safeset.center + np.array([0.0, 0.5])  # h = -0.5
        with pytest.raises(QpInfeasible):
            sa.qp_controller(sa.ControllerQp(tiny, safeset, tiny_cost, params), x)


class TestSolver:
    def test_unconstrained_minimum(self):
        H = np.diag([1.0, 2.0])
        prob = sa.QpProblem(H=H, c_lin=np.array([-2.0, -4.0]),
                            A=np.zeros((0, 2)), b=np.zeros(0))
        sol = sa.solve_qp(prob)
        np.testing.assert_allclose(sol.v_star, [1.0, 1.0], atol=1e-9)
        assert sol.active_set == ()

    def test_single_active_constraint(self):
        # min v1^2 + v2^2 s.t. v1 >= 1  ->  v = (1, 0), lam = 2
        prob = sa.QpProblem(H=np.eye(2), c_lin=np.zeros(2),
                            A=np.array([[-1.0, 0.0]]), b=np.array([-1.0]))
        sol = sa.solve_qp(prob)
        np.testing.assert_allclose(sol.v_star, [1.0, 0.0], atol=1e-9)
        assert sol.active_set == (0,)
        assert sol.multipliers[0] == pytest.approx(2.0, abs=1e-8)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            prob = random_qp(rng)
            sol = sa.solve_qp(prob)
            ref = enumerate_qp(prob)
            assert ref is not None
            assert np.linalg.norm(sol.v_star - ref[0], np.inf) <= 1e-6
            assert abs(prob.objective(sol.v_star) - ref[2]) <= 1e-8

    def test_optimal_beats_random_feasible_points(self):
        rng = np.random.default_rng(32)
        prob = random_qp(rng, d=3, k=6)
        sol = sa.solve_qp(prob)
        count = 0
        while count < 10000:
            v = sol.v_star + rng.normal(scale=1.0, size=3)
            if np.any(prob.A @ v > prob.b):
                continue
            assert prob.objective(v) >= prob.objective(sol.v_star) - 1e-10
            count += 1

    def test_infeasible_detection(self):
        prob = sa.QpProblem(H=np.eye(1), c_lin=np.zeros(1),
                            A=np.array([[1.0], [-1.0]]),
                            b=np.array([-1.0, -1.0]))  # v <= -1 and v >= 1
        with pytest.raises(QpInfeasible):
            sa.solve_qp(prob)

    def test_iteration_limit_raises(self, monkeypatch):
        # a cold solve that needs two passes of the dual loop (add row 0,
        # then find nothing violated) fails to converge in one
        prob = sa.QpProblem(H=np.eye(2), c_lin=np.zeros(2),
                            A=np.array([[-1.0, 0.0]]), b=np.array([-1.0]))
        assert sa.solve_qp(prob).iterations == 2
        monkeypatch.setattr(sa.qpsolve, "MAX_ITER", 1)
        with pytest.raises(QpSolverFailed, match="failed to converge"):
            sa.solve_qp(prob)

    def test_asymmetric_h_rejected(self):
        with pytest.raises(ValueError):
            sa.QpProblem(H=np.array([[1.0, 0.5], [0.0, 1.0]]),
                         c_lin=np.zeros(2), A=np.zeros((0, 2)), b=np.zeros(0))

    @pytest.mark.parametrize("H", [[[np.inf, 0.0], [0.0, 1.0]], [[1.0, np.inf], [np.inf, 1.0]],
                                   [[1.0, np.nan], [np.nan, 1.0]]], ids=["inf", "inf-pair", "nan"])
    def test_non_finite_h_rejected(self, H):
        # np.allclose takes equal infinities as close
        with pytest.raises(ValueError, match="finite"):
            sa.QpProblem(H=np.array(H), c_lin=np.zeros(2), A=np.zeros((0, 2)), b=np.zeros(0))

    @pytest.mark.parametrize("H", [[[1.0, 2.0], [2.0, 1.0]], [[-1.0, 0.0], [0.0, 1.0]]],
                             ids=["indefinite", "negative-diagonal"])
    def test_h_not_positive_definite_rejected(self, H):
        # neither is a strictly convex problem: the dual loop cannot factor
        # the first, and the second is unbounded below, yet its warm start
        # from (0,) would meet the KKT rule at v = (1, 0)
        with pytest.raises(ValueError, match="positive definite"):
            sa.QpProblem(H=np.array(H), c_lin=np.zeros(2), A=np.eye(2), b=np.ones(2))

    @pytest.mark.parametrize("gap, accepted", [(0.99e-5, True), (1.01e-5, False)])
    def test_symmetry_tolerance_matches_allclose(self, gap, accepted):
        # |H - H^T| <= 1e-12 + 1e-5 |H^T|: the boundary sits at gap 1e-5 + 1e-12
        H = np.array([[2.0, 1.0 + gap], [1.0, 2.0]])
        assert np.allclose(H, H.T, atol=1e-12) == accepted
        make = lambda c=np.zeros(2): sa.QpProblem(H=H, c_lin=c, A=np.zeros((0, 2)), b=np.zeros(0))
        if accepted:
            # the problem keeps the symmetric part of H, so the factor and
            # the residuals read one Hessian and the optimum passes the rule
            np.testing.assert_array_equal(make().H, 0.5 * (H + H.T))
            for c in (np.array([-1.0, -1.0]), np.array([-1000.0, -1000.0])):
                v = sa.solve_qp(make(c)).v_star
                np.testing.assert_allclose(v, np.linalg.solve(H + H.T, -c), rtol=1e-12)
        else:
            with pytest.raises(ValueError):
                make()

    def test_badly_scaled_optimum_is_accepted(self):
        # a fuzz-found instance: |v| ~ 2.5e6 and a multiplier ~ 1.8e6, so
        # the rounding in the active row's slack makes a complementarity
        # residual of ~5e-4, far above KKT_TOL but within the rounding
        # bound of a point of that size; enumeration confirms the optimum
        prob = sa.QpProblem(H=np.diag([1.926, 0.876]), c_lin=np.array([-6944035.0, -3266853.0]),
                            A=np.array([[-0.56, 0.008], [-0.375, -0.3],
                                        [-1.379, -0.807], [1.654, -0.671]]),
                            b=np.array([0.856, 0.201, 0.643, 0.531]))
        sol = sa.solve_qp(prob)
        v_ref, active_ref, _ = enumerate_qp(prob)
        assert sol.active_set == active_ref == (3,)
        np.testing.assert_allclose(sol.v_star, v_ref, rtol=1e-12)
        res = sa.kkt_residuals(prob, sol.v_star, sol.multipliers)
        bounds = sa.qpsolve.rounding_bounds(prob, sol.v_star, sol.multipliers)
        assert sa.qpsolve.KKT_TOL < res["complementarity"] <= bounds["complementarity"]

    def test_kkt_residuals_report(self):
        prob = sa.QpProblem(H=np.eye(2), c_lin=np.zeros(2),
                            A=np.array([[-1.0, 0.0]]), b=np.array([-1.0]))
        res = sa.kkt_residuals(prob, np.array([1.0, 0.0]), np.array([2.0]))
        assert all(v <= 1e-12 for v in res.values())
        res_bad = sa.kkt_residuals(prob, np.array([0.0, 0.0]), np.array([0.0]))
        assert res_bad["primal"] == pytest.approx(1.0)

    @pytest.mark.parametrize("v, lam, slack, nan_in", [
        ([0.0, 0.0], [0.0, 0.0], [np.nan, -1.0], {"primal", "complementarity"}),
        ([np.nan, 0.0], [0.0, 0.0], None, {"stationarity", "primal", "complementarity"}),
        ([0.0, 0.0], [np.nan, 0.0], None, {"stationarity", "dual", "complementarity"}),
    ], ids=["nan-slack", "nan-point", "nan-multiplier"])
    def test_kkt_report_shows_a_nan_where_the_verdict_fails(self, v, lam, slack, nan_in):
        # the slack of v is [v1, v2 - 1]
        prob = sa.QpProblem(H=np.eye(2), c_lin=np.zeros(2), A=np.eye(2), b=np.array([0.0, 1.0]))
        v, lam = np.array(v), np.array(lam)
        own = prob.A @ v - prob.b
        slack = own if slack is None else np.array(slack)
        given = [{"slack": slack}]
        if np.array_equal(slack, own, equal_nan=True):
            given.append({})
        for kwargs in given:
            res = sa.kkt_residuals(prob, v, lam, **kwargs)
            assert {name for name, r in res.items() if math.isnan(r)} == nan_in
            # a residual no NaN enters reads 0.0, not -0.0
            assert all(r == 0.0 and math.copysign(1.0, r) == 1.0
                       for name, r in res.items() if name not in nan_in)
            assert kkt_ok(prob, v, lam, **kwargs) is False


def _check_against_oracle(prob):
    """solve_qp raises QpInfeasible exactly when exhaustive enumeration
    finds no optimum; otherwise its result is a KKT point at KKT_TOL with
    the oracle's objective."""
    ref = enumerate_qp(prob)
    if ref is None:
        with pytest.raises(QpInfeasible):
            sa.solve_qp(prob)
        return None
    sol = sa.solve_qp(prob)
    assert kkt_ok(prob, sol.v_star, sol.multipliers)
    assert abs(prob.objective(sol.v_star) - ref[2]) <= 1e-8 * max(1.0, abs(ref[2]))
    return sol


class TestSolverProperties:
    def test_unconstrained_minimum_on_a_row(self):
        # the band |A_i v0 - b_i| <= 1e-9 around the unconstrained minimum v0
        # is where a start-dependent working set can go wrong
        rng = np.random.default_rng(33)
        for _ in range(300):
            prob = random_qp(rng)
            v0 = np.linalg.solve(2.0 * prob.H, -prob.c_lin)
            i = rng.integers(prob.k)
            prob.b[i] = prob.A[i] @ v0 + rng.uniform(-1e-9, 1e-9)
            _check_against_oracle(prob)

    def test_infeasible_instances(self):
        # a Farkas certificate y >= 0 with y^T A = 0 and y^T b < 0 on the
        # first d + 1 rows makes every instance infeasible
        rng = np.random.default_rng(34)
        d, k = 3, 6
        for _ in range(300):
            prob = random_qp(rng, d=d, k=k)
            y = rng.uniform(0.1, 1.0, size=d + 1)
            prob.A[d] = -(y[:d] @ prob.A[:d]) / y[d]
            prob.b[d] = -(y[:d] @ prob.b[:d] + rng.uniform(0.01, 1.0)) / y[d]
            _check_against_oracle(prob)

    def test_controller_on_boundary_band(self, ctrl, safeset):
        rng = np.random.default_rng(35)
        for _ in range(300):
            theta = rng.uniform(0.0, 2.0 * np.pi)
            h = 10.0 ** rng.uniform(-12.0, -6.0)
            x = safeset.center + (safeset.radius + h) * np.array([np.cos(theta),
                                                                  np.sin(theta)])
            assert _check_against_oracle(sa.build_qp(ctrl, x)) is not None


def _same_solution(a, b):
    """Bit-for-bit equality of two solve_qp results."""
    assert a.active_set == b.active_set
    np.testing.assert_array_equal(a.v_star, b.v_star)
    np.testing.assert_array_equal(a.multipliers, b.multipliers)


class TestWarmStart:
    # min v1^2 + v2^2  s.t.  v1 >= 1 (row 0, active with multiplier 2),
    # v2 <= 5, v1 <= 3, and row 3 a copy of row 0: the optimum is (1, 0)
    # on the active set (0,)
    PROB = dict(H=np.eye(2), c_lin=np.zeros(2),
                A=np.array([[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]]),
                b=np.array([-1.0, 5.0, 3.0, -1.0]))

    def test_hit_takes_no_iteration_and_equals_the_cold_solve(self):
        prob = sa.QpProblem(**self.PROB)
        cold = sa.solve_qp(prob)
        warm = sa.solve_qp(prob, start=(0,))
        assert cold.active_set == (0,) and cold.iterations > 0
        assert warm.iterations == 0
        _same_solution(warm, cold)

    @pytest.mark.parametrize("start", [(1,), (2,), (0, 3), (0, 1, 2), (), (7,), (0, 0)],
                             ids=["violated-row", "negative-multiplier", "dependent-rows",
                                  "more-than-d", "empty", "out-of-range", "repeated"])
    def test_stale_start_falls_back(self, start):
        prob = sa.QpProblem(**self.PROB)
        sol = sa.solve_qp(prob, start=start)
        assert sol.iterations > 0  # the dual loop ran
        _same_solution(sol, sa.solve_qp(prob))
        ref = enumerate_qp(prob)
        np.testing.assert_allclose(sol.v_star, ref[0], rtol=0, atol=1e-12)
        assert abs(prob.objective(sol.v_star) - ref[2]) <= 1e-12

    def test_stale_start_cases_fail_where_named(self):
        # each stale start above trips the check its id names
        prob = sa.QpProblem(**self.PROB)
        v, _ = sa.qpsolve._equality_solve(prob, [1])
        assert (prob.A @ v - prob.b).max() == 1.0  # row 0, by 1
        v, lam = sa.qpsolve._equality_solve(prob, [2])
        assert (prob.A @ v - prob.b).max() <= 0.0 and lam[0] < 0.0
        with pytest.raises(np.linalg.LinAlgError):
            sa.qpsolve._equality_solve(prob, [0, 3])

    @pytest.mark.parametrize("c1, b1, cold_set", [(0.0, -5e-9, (0, 1)), (-2.000000005, 1.0, ())],
                             ids=["row-violated-by-5e-9", "multiplier-of-minus-5e-9"])
    def test_start_within_kkt_tol_but_not_the_stopping_rule(self, c1, b1, cold_set):
        # on start (0,) the point passes kkt_ok (tolerance 1e-8) but the
        # loop would not stop there: row 1 is violated by more than
        # SOLVE_TOL, or row 0's multiplier is -5e-9
        prob = sa.QpProblem(H=np.eye(2), c_lin=np.array([c1, 0.0]),
                            A=np.array([[-1.0, 0.0], [0.0, 1.0]]), b=np.array([-1.0, b1]))
        v, lam = sa.qpsolve._equality_solve(prob, [0])
        assert kkt_ok(prob, v, np.append(lam, 0.0))
        cold = sa.solve_qp(prob)
        assert cold.active_set == cold_set
        _same_solution(sa.solve_qp(prob, start=(0,)), cold)

    @pytest.mark.parametrize("b1, lam0, dc, verdict", [
        (1.0, 2.0, 0.0, True),
        (-5e-9, 2.0, 0.0, True),  # row 1 violated by 5e-9
        (-5e-8, 2.0, 0.0, False),  # ... and by 5e-8
        (1.0, -5e-9, 0.0, True),  # a multiplier of -5e-9
        (1.0, -5e-8, 0.0, False),
        (1.0, 2.0, 1e-6, False),  # a bad stationarity residual
    ], ids=["optimum", "row-violated-by-5e-9", "row-violated-by-5e-8", "multiplier-of-minus-5e-9",
            "multiplier-of-minus-5e-8", "stationarity"])
    def test_kkt_verdict_with_a_given_slack(self, b1, lam0, dc, verdict):
        # v = (1, 0) with multiplier lam0 on row 0 (v1 >= 1) and row 1
        # v2 <= b1; c_lin makes 2 H v + c_lin + A^T lam vanish, up to dc
        prob = sa.QpProblem(H=np.eye(2), c_lin=np.array([lam0 - 2.0 + dc, 0.0]),
                            A=np.array([[-1.0, 0.0], [0.0, 1.0]]), b=np.array([-1.0, b1]))
        v, lam = np.array([1.0, 0.0]), np.array([lam0, 0.0])
        slack = prob.A @ v - prob.b
        assert sa.kkt_residuals(prob, v, lam, slack) == sa.kkt_residuals(prob, v, lam)
        assert kkt_ok(prob, v, lam, slack=slack) is kkt_ok(prob, v, lam) is verdict

    def test_warm_check_reuses_its_slack(self, monkeypatch):
        given = []
        real = sa.qpsolve.kkt_ok

        def record(prob, v, lam, *args, **kwargs):
            given.append((prob.A @ v - prob.b, kwargs.get("slack")))
            return real(prob, v, lam, *args, **kwargs)

        monkeypatch.setattr(sa.qpsolve, "kkt_ok", record)
        assert sa.solve_qp(sa.QpProblem(**self.PROB), start=(0,)).iterations == 0
        (want, slack), = given
        np.testing.assert_array_equal(slack, want)

    def test_infeasible_problem_with_a_start(self):
        prob = sa.QpProblem(H=np.eye(1), c_lin=np.zeros(1),
                            A=np.array([[1.0], [-1.0]]),
                            b=np.array([-1.0, -1.0]))  # v <= -1 and v >= 1
        for start in ((0,), (1,), (0, 1)):
            with pytest.raises(QpInfeasible):
                sa.solve_qp(prob, start=start)
        rng = np.random.default_rng(36)
        d, k = 3, 6
        for _ in range(100):
            prob = random_qp(rng, d=d, k=k)
            y = rng.uniform(0.1, 1.0, size=d + 1)
            prob.A[d] = -(y[:d] @ prob.A[:d]) / y[d]
            prob.b[d] = -(y[:d] @ prob.b[:d] + rng.uniform(0.01, 1.0)) / y[d]
            start = tuple(rng.choice(k, size=rng.integers(1, d + 1), replace=False))
            assert enumerate_qp(prob) is None
            with pytest.raises(QpInfeasible):
                sa.solve_qp(prob, start=start)

    def test_random_starts_equal_the_cold_solve(self, ctrl, safeset):
        rng = np.random.default_rng(37)
        probs = [random_qp(rng, d=rng.integers(2, 5), k=rng.integers(3, 9)) for _ in range(200)]
        for _ in range(200):
            x = rng.uniform(-4, 6, size=2)
            if np.linalg.norm(x - safeset.center) > safeset.radius + 0.02:
                probs.append(sa.build_qp(ctrl, x))
        hits = 0
        for prob in probs:
            cold = sa.solve_qp(prob)
            starts = [tuple(rng.choice(prob.k, size=rng.integers(0, min(prob.d + 2, prob.k) + 1),
                                         replace=False))
                      for _ in range(3)]
            starts.append(tuple(rng.permutation(cold.active_set)))  # the right set, any order
            for start in starts:
                warm = sa.solve_qp(prob, start=start)
                _same_solution(warm, cold)
                hits += warm.iterations == 0
        assert hits >= len(probs)


def _full_kkt_rule(prob, v, lam):
    """kkt_ok's rule written out from the residuals and their bounds."""
    res = sa.kkt_residuals(prob, v, lam)
    bounds = sa.qpsolve.rounding_bounds(prob, v, lam)
    return all(r <= max(sa.qpsolve.KKT_TOL, bounds[name]) for name, r in res.items())


def _full_acceptance(prob, W, v, lam):
    """_accepted's rule written out: no row violated by more than
    SOLVE_TOL, no negative multiplier, and the full KKT rule."""
    lam_full = np.zeros(prob.k)
    lam_full[W] = lam
    slack = prob.A @ v - prob.b
    return (not (slack > sa.qpsolve.SOLVE_TOL).any() and not (lam < 0.0).any()
            and _full_kkt_rule(prob, v, lam_full))


class TestAcceptanceRule:
    # the warm check reads the residuals off the arrays and forms the bounds
    # only when its absolute test fails: its verdicts against the rule
    # written out, at points nudged across SOLVE_TOL and KKT_TOL

    @staticmethod
    def _check(prob, W, v, lam, verdicts):
        W = sorted(W)
        lam_full = np.zeros(prob.k)
        lam_full[W] = lam
        slack = prob.A @ v - prob.b
        full = _full_kkt_rule(prob, v, lam_full)
        assert kkt_ok(prob, v, lam_full) is kkt_ok(prob, v, lam_full, slack=slack) is full
        accepted = sa.qpsolve._accepted(prob, W, v, lam, 0)
        assert (accepted is not None) == _full_acceptance(prob, W, v, lam)
        verdicts.append((full, accepted is not None))

    def test_verdicts_match_the_full_rule_near_the_tolerances(self):
        rng = np.random.default_rng(39)
        factors = (-2.0, -1.01, -0.99, -0.5, 0.5, 0.99, 1.01, 2.0)
        verdicts = []
        for _ in range(150):
            prob = random_qp(rng, d=int(rng.integers(2, 5)), k=int(rng.integers(3, 8)))
            if rng.random() < 0.3:  # large multipliers: the rounding bounds decide
                prob = sa.QpProblem(H=prob.H, c_lin=prob.c_lin * 1e6, A=prob.A, b=prob.b)
            try:
                sol = sa.solve_qp(prob)
            except QpSolverFailed:  # a scaled instance whose loop point fails the rule
                continue
            W = list(sol.active_set)
            v, lam = sol.v_star, sol.multipliers[W]
            self._check(prob, W, v, lam, verdicts)

            def with_c(c_lin):
                return sa.QpProblem(H=prob.H, c_lin=c_lin, A=prob.A, b=prob.b)

            def with_multiplier(i, mu):
                # row i's multiplier set to mu, with c_lin moved to keep the
                # stationarity residual
                lam_full = np.zeros(prob.k)
                lam_full[W] = lam
                W2 = sorted(set(W) | {i})
                moved = with_c(prob.c_lin + prob.A[i] * (lam_full[i] - mu))
                lam_full[i] = mu
                return moved, W2, lam_full[W2]

            for tol in (sa.qpsolve.SOLVE_TOL, sa.qpsolve.KKT_TOL):
                e = tol * rng.choice(factors)
                u = rng.normal(size=prob.d)
                u /= np.linalg.norm(u)
                i = int(rng.integers(prob.k))
                # primal: row i's slack is e
                moved = sa.QpProblem(H=prob.H, c_lin=prob.c_lin, A=prob.A, b=prob.b.copy())
                moved.b[i] = prob.A[i] @ v - e
                self._check(moved, W, v, lam, verdicts)
                # dual: an active row's multiplier is e
                if W:
                    moved, W2, lam2 = with_multiplier(W[rng.integers(len(W))], e)
                    self._check(moved, W2, v, lam2, verdicts)
                # complementarity: an inactive row's multiplier times its slack is e
                slack = prob.A @ v - prob.b
                rows = [j for j in range(prob.k) if j not in W and slack[j] < 0.0]
                if rows and len(W) < prob.d:
                    j = rows[rng.integers(len(rows))]
                    moved, W2, lam2 = with_multiplier(j, abs(e) / -slack[j])
                    self._check(moved, W2, v, lam2, verdicts)
                # stationarity: c_lin moved by e; and the point moved by e
                self._check(with_c(prob.c_lin + e * u), W, v, lam, verdicts)
                self._check(prob, W, v + e * u, lam, verdicts)
        # both verdicts of both rules occur
        assert {full for full, _ in verdicts} == {True, False}
        assert {acc for _, acc in verdicts} == {True, False}

    @pytest.mark.parametrize("x0", [[3.0, 3.5], [3.0, 3.0]])
    def test_every_hold_decides_as_the_full_rule(self, monkeypatch, x0):
        accepted, checks = sa.qpsolve._accepted, []

        def both(prob, W, v, lam, iterations):
            sol = accepted(prob, W, v, lam, iterations)
            assert (sol is not None) == _full_acceptance(prob, W, v, lam)
            lam_full = np.zeros(prob.k)
            lam_full[W] = lam
            assert kkt_ok(prob, v, lam_full) is _full_kkt_rule(prob, v, lam_full)
            checks.append(sol is not None)
            return sol

        monkeypatch.setattr(sa.qpsolve, "_accepted", both)
        rec = sa.run_qp_episode(sa.build_scenario(sim__controller="qp", sim__t_final=2.0,
                                                  sim__x0=x0))
        assert rec.status == "OK"
        assert sum(checks) == 200  # one accepted solution per hold
