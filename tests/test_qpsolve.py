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
        lin = sa.linear_system(A=np.array([[0.0, 1.0], [-1.0, -0.5]]),
                               B=np.array([[0.0, 0.3], [1.0, 0.2]]))
        Q = np.array([[2.0, 0.5], [0.5, 1.0]])
        cost = sa.CostSpec(Q=Q, r_diag=cost_spec.r_diag, u_max=cost_spec.u_max)
        lin_ctrl = sa.ControllerQp(lin, safeset, cost, params)
        rng = np.random.default_rng(38)
        for x in rng.uniform(-4, 6, size=(50, 2)):
            if np.linalg.norm(x - safeset.center) < 0.1:
                continue
            f, g, gh = lin.drift(x), lin.input_map(x), safeset.grad(x)
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
            gh = safeset.grad(x)
            assert float(gh @ (sys_.input_map(x) @ u)) + params.alpha_scale * safeset.h(x) >= -1e-8

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

    @pytest.mark.parametrize("gap, accepted", [(0.99e-5, True), (1.01e-5, False)])
    def test_symmetry_tolerance_matches_allclose(self, gap, accepted):
        # |H - H^T| <= 1e-12 + 1e-5 |H^T|: the boundary sits at gap 1e-5 + 1e-12
        H = np.array([[2.0, 1.0 + gap], [1.0, 2.0]])
        assert np.allclose(H, H.T, atol=1e-12) == accepted
        make = lambda: sa.QpProblem(H=H, c_lin=np.zeros(2), A=np.zeros((0, 2)), b=np.zeros(0))
        if accepted:
            make()
        else:
            with pytest.raises(ValueError):
                make()

    def test_kkt_residuals_report(self):
        prob = sa.QpProblem(H=np.eye(2), c_lin=np.zeros(2),
                            A=np.array([[-1.0, 0.0]]), b=np.array([-1.0]))
        res = sa.kkt_residuals(prob, np.array([1.0, 0.0]), np.array([2.0]))
        assert all(v <= 1e-12 for v in res.values())
        res_bad = sa.kkt_residuals(prob, np.array([0.0, 0.0]), np.array([0.0]))
        assert res_bad["primal"] == pytest.approx(1.0)


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
