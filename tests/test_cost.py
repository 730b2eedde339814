import numpy as np
import pytest

import safeadp as sa
from safeadp.cost import BBAR_OFFSET, D_OFF, D_ON
from safeadp.errors import BoundaryViolation, InputOutOfBox
from safeadp.oracles import quadrature_Ru


def _h_point(safeset, h):
    """Point at barrier level h, straight up from the disk center."""
    return safeset.center + np.array([0.0, safeset.radius + h])


def _bbar_with_s(barrier, x, s):
    """k_p s/(h+BBAR_OFFSET) at x: the bounded barrier for the scheduling
    weight s."""
    return barrier.k_p * s / (barrier.safeset.h(x) + BBAR_OFFSET)


class TestScheduling:
    # the scheduling weight s(h) is read through barrier_Bbar = k_p s/(h+BBAR_OFFSET)
    def test_fully_on_and_off(self, safeset, barrier):
        on, off = _h_point(safeset, 0.1), _h_point(safeset, 1.1)
        assert sa.barrier_Bbar(barrier, on) == _bbar_with_s(barrier, on, 1.0)
        assert sa.barrier_Bbar(barrier, off) == 0.0

    def test_midpoint(self, safeset, barrier):
        x = _h_point(safeset, 0.5 * (D_ON + D_OFF))
        assert sa.barrier_Bbar(barrier, x) == pytest.approx(_bbar_with_s(barrier, x, 0.5))

    def test_vanishes_at_origin(self, barrier):
        assert sa.barrier_Bbar(barrier, np.zeros(2)) == 0.0

    def test_c1_across_thresholds(self, safeset, barrier):
        # finite-difference slope of s(h) continuous at D_ON and D_OFF
        def s_of(h):
            return barrier.schedule(h)[0]

        eps = 1e-5
        for h0 in (D_ON, D_OFF):
            left = (s_of(h0) - s_of(h0 - eps)) / eps
            right = (s_of(h0 + eps) - s_of(h0)) / eps
            assert left == pytest.approx(right, abs=1e-4)

    def test_schedule_ends_and_slope(self, barrier):
        # exactly (1, 0) at and below D_ON, (0, 0) at and above D_OFF
        lo, hi = D_ON, D_OFF
        s, ds = barrier.schedule(np.array([lo - 0.5, lo - 1e-3, lo, hi, hi + 1e-3, hi + 5.0]))
        np.testing.assert_array_equal(s, [1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(ds, 0.0)
        # inside the band ds/dh is the central difference of s
        h = np.linspace(lo, hi, 23)[1:-1]
        eps = 1e-6
        fd = (barrier.schedule(h + eps)[0] - barrier.schedule(h - eps)[0]) / (2.0 * eps)
        np.testing.assert_allclose(barrier.schedule(h)[1], fd, rtol=1e-6, atol=1e-9)
        assert (barrier.schedule(h)[1] < 0.0).all()

    def test_construction_rejects_nonvanishing_origin_weight(self):
        near = sa.CircularSafeSet(center=np.array([1.2, 0.0]), radius=1.0)
        with pytest.raises(ValueError):
            sa.BarrierSpec(near, k_p=1.0)  # h(0) = 0.2 < D_OFF


class TestBarrier:
    def test_zero_at_origin(self, barrier):
        assert sa.barrier_B(barrier, np.zeros(2)) == 0.0
        assert sa.barrier_Bbar(barrier, np.zeros(2)) == 0.0

    def test_fully_on_value(self, safeset, barrier):
        h = D_ON / 2
        assert sa.barrier_B(barrier, _h_point(safeset, h)) == pytest.approx(2.0 / D_ON)

    def test_boundary_violation(self, safeset, barrier):
        with pytest.raises(BoundaryViolation):
            sa.barrier_B(barrier, _h_point(safeset, 0.0))

    def test_monotone_along_exit_ray(self, safeset, barrier):
        # dense sampling oracle: B nonincreasing in h on (0, D_ON]
        hs = np.linspace(1e-4, D_ON, 400)
        vals = [sa.barrier_B(barrier, _h_point(safeset, h)) for h in hs]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_bbar_boundary_value(self, safeset, barrier):
        assert sa.barrier_Bbar(barrier, _h_point(safeset, 0.0)) == pytest.approx(2.0)

    def test_bbar_below_b(self, safeset, barrier):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = rng.uniform(-2, 6, size=2)
            if safeset.h(x) <= 1e-6:
                continue
            assert sa.barrier_Bbar(barrier, x) <= sa.barrier_B(barrier, x) + 1e-15

    def test_grad_bbar_matches_finite_differences(self, safeset, barrier):
        from safeadp.oracles import central_difference
        rng = np.random.default_rng(6)
        count = 0
        while count < 100:
            x = rng.uniform(-1, 5, size=2)
            if safeset.h(x) < 0.05:
                continue
            fd = central_difference(lambda y: sa.barrier_Bbar(barrier, y), x)
            g = sa.grad_Bbar(barrier, x)
            assert np.linalg.norm(fd - g) <= 1e-5 * max(np.linalg.norm(g), 1.0)
            count += 1


class TestInputPenalty:
    def test_zero_at_zero(self, cost_spec):
        assert sa.input_penalty_Ru(cost_spec, np.zeros(2)) == 0.0

    def test_corner_limit(self, cost_spec):
        per_component = 2 * 0.5 ** 2 * 10.0 * np.log(2.0)
        got = sa.input_penalty_Ru(cost_spec, np.array([0.5, 0.0]))
        assert got == pytest.approx(per_component, abs=1e-9)
        # approaching the corner from inside agrees with the limit
        near = sa.input_penalty_Ru(cost_spec, np.array([0.5 * (1 - 1e-8), 0.0]))
        assert near == pytest.approx(per_component, abs=1e-4)

    def test_matches_quadrature(self, cost_spec):
        rng = np.random.default_rng(7)
        for _ in range(50):
            u = rng.uniform(-0.499, 0.499, size=2)
            exact = sa.input_penalty_Ru(cost_spec, u)
            ref = quadrature_Ru(cost_spec, u)
            assert exact == pytest.approx(ref, rel=1e-8, abs=1e-12)

    def test_out_of_box(self, cost_spec):
        with pytest.raises(InputOutOfBox):
            sa.input_penalty_Ru(cost_spec, np.array([0.6, 0.0]))

    def test_convex_midpoint(self, cost_spec):
        rng = np.random.default_rng(8)
        for _ in range(100):
            u, v = rng.uniform(-0.5, 0.5, size=(2, 2))
            mid = sa.input_penalty_Ru(cost_spec, 0.5 * (u + v))
            avg = 0.5 * (sa.input_penalty_Ru(cost_spec, u) + sa.input_penalty_Ru(cost_spec, v))
            assert mid <= avg + 1e-12


class TestInstantaneousCost:
    def test_zero_at_origin(self, cost_spec, barrier):
        assert sa.instantaneous_cost(cost_spec, barrier, np.zeros(2), np.zeros(2)) == 0.0

    def test_barrier_off_region(self, cost_spec, barrier):
        x = np.array([-1.0, -1.0])  # h(x) > D_OFF, so only the state term
        assert sa.instantaneous_cost(cost_spec, barrier, x, np.zeros(2)) == pytest.approx(
            float(x @ x))

    def test_lower_bound(self, cost_spec, barrier, safeset):
        rng = np.random.default_rng(9)
        for _ in range(200):
            x = rng.uniform(-2, 6, size=2)
            if safeset.h(x) <= 1e-6:
                continue
            u = rng.uniform(-0.5, 0.5, size=2)
            r = sa.instantaneous_cost(cost_spec, barrier, x, u)
            assert r >= np.linalg.eigvalsh(cost_spec.Q)[0] * float(x @ x) - 1e-12
