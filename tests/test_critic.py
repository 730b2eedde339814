import dataclasses

import numpy as np
import pytest

import safeadp as sa
from safeadp.critic import PROJ_LAYER, WA_BOUND
from safeadp.oracles import central_difference


@pytest.fixture()
def setup(barrier, cost_spec, safeset):
    return {
        "sys": sa.build_scenario().system,
        "cfg": sa.build_scenario().staf,
        "gains": sa.build_scenario().gains,
        "bar": barrier,
        "cost": cost_spec,
        "safeset": safeset,
    }


def _bell(setup, y, x, Wc, Wa):
    return sa.bellman_at(y, x, Wc, Wa, setup["sys"], setup["cost"],
                         setup["bar"], setup["cfg"], setup["gains"])


class TestBellman:
    def test_origin_trivial(self, setup):
        s = _bell(setup, np.zeros(2), np.zeros(2), np.zeros(3), np.zeros(3))
        assert s.delta == 0.0
        assert s.rho == 1.0
        assert np.all(s.omega == 0.0)
        assert np.all(s.Lambda == 0.0)

    def test_affine_in_wc(self, setup):
        rng = np.random.default_rng(20)
        x = np.array([1.5, -0.5])
        Wa = rng.normal(size=3)
        w1, w2 = rng.normal(size=(2, 3))
        s0 = _bell(setup, x, x, np.zeros(3), Wa)
        s1 = _bell(setup, x, x, w1, Wa)
        s2 = _bell(setup, x, x, w2, Wa)
        s12 = _bell(setup, x, x, w1 + w2, Wa)
        assert s12.delta - s0.delta == pytest.approx(
            (s1.delta - s0.delta) + (s2.delta - s0.delta), abs=1e-10)
        assert s1.delta - s0.delta == pytest.approx(float(w1 @ s1.omega), abs=1e-10)

    def test_delta_matches_independent_assembly(self, setup):
        # cross-check: delta = Lf Vhat + Lg Vhat u + r assembled by hand
        sys_, cfg, bar, cost = setup["sys"], setup["cfg"], setup["bar"], setup["cost"]
        rng = np.random.default_rng(21)
        for _ in range(50):
            x = rng.uniform(-2, 2, size=2)
            if setup["safeset"].h(x) < 0.05:
                continue
            Wc, Wa = rng.normal(size=(2, 3))
            s = _bell(setup, x, x, Wc, Wa)
            u = sa.policy_hat(cfg, bar, cost, sys_, Wa, x, x)
            xdot = sys_.A @ x + sys_.B @ u
            gradV = sa.grad_sigma(cfg, x, x).T @ Wc + sa.grad_Bbar(bar, x)
            ref = float(gradV @ xdot) + sa.instantaneous_cost(cost, bar, x, u)
            assert s.delta == pytest.approx(ref, abs=1e-10)

    def test_rho_and_normalization_bounds(self, setup):
        rng = np.random.default_rng(22)
        nu = setup["gains"].nu
        for _ in range(100):
            x = rng.uniform(-2, 2, size=2)
            if setup["safeset"].h(x) < 0.05:
                continue
            Wc, Wa = rng.normal(scale=5.0, size=(2, 3))
            s = _bell(setup, x, x, Wc, Wa)
            assert s.rho >= 1.0
            assert np.linalg.norm(s.omega) / s.rho <= 1.0 / (2.0 * np.sqrt(nu)) + 1e-12
            assert np.linalg.eigvalsh(s.Lambda)[-1] <= 1.0 / (4.0 * nu) + 1e-12


class TestExtrapolation:
    def test_points_in_box(self, setup):
        rng = np.random.default_rng(23)
        x = np.array([3.0, 3.5])
        half = 0.05 * setup["cfg"].theta(x)
        pts = sa.sample_extrapolation_points(rng, x, 50, setup["cfg"], setup["safeset"])
        assert len(pts) == 50
        for p in pts:
            assert np.all(np.abs(p - x) <= half + 1e-15)
            assert setup["safeset"].h(p) > 0.0

    def test_deterministic_given_seed(self, setup):
        x = np.array([1.0, -1.0])
        a = sa.sample_extrapolation_points(np.random.default_rng(7), x, 5,
                                           setup["cfg"], setup["safeset"])
        b = sa.sample_extrapolation_points(np.random.default_rng(7), x, 5,
                                           setup["cfg"], setup["safeset"])
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))

    def test_collapse_at_origin(self, setup):
        # theta(0) = 0, so the sampling box degenerates to the anchor
        pts = sa.sample_extrapolation_points(np.random.default_rng(0), np.zeros(2),
                                             3, setup["cfg"], setup["safeset"])
        for p in pts:
            np.testing.assert_array_equal(p, np.zeros(2))

    def test_collapse_to_the_anchor_after_16_failed_draws(self, setup):
        # a safe set whose interior is the anchor alone: every draw fails,
        # so each point is drawn 16 times and then set to the anchor
        x = np.array([3.0, 3.5])
        tried = []

        class AnchorOnly:
            def h(self, p):
                tried.append(np.array(p))
                return 1.0 if np.array_equal(p, x) else sa.cost.H_MIN

        pts = sa.sample_extrapolation_points(np.random.default_rng(3), x, 2,
                                             setup["cfg"], AnchorOnly())
        np.testing.assert_array_equal(pts, [x, x])
        assert len(tried) == 2 * 16
        assert not any(np.array_equal(p, x) for p in tried)


class TestCriticUpdate:
    def test_zero_error_zero_update(self, setup):
        s = _bell(setup, np.zeros((2, 2)), np.zeros(2), np.zeros(3), np.zeros(3))
        rhs = sa.critic_rhs(setup["gains"], np.eye(3), s)
        assert np.all(rhs == 0.0)

    def test_matches_squared_error_gradient(self, setup):
        # the update is -Gamma times the gradient of the normalized
        # squared Bellman error in the critic weights; with N = 3 each
        # extrapolated row weighs kc2/N
        rng = np.random.default_rng(24)
        for N in (1, 3):
            gains = dataclasses.replace(setup["gains"], N=N)
            for _ in range(20):
                x = rng.uniform(0.5, 2.0, size=2) * np.array([-1.0, 1.0])
                Wc, Wa = rng.normal(size=(2, 3))
                Gamma = np.eye(3) + 0.1 * np.ones((3, 3))
                pts = sa.sample_extrapolation_points(rng, x, gains.N,
                                                     setup["cfg"], setup["safeset"])
                rows = _bell(setup, np.vstack([x, pts]), x, Wc, Wa)
                rhs = sa.critic_rhs(gains, Gamma, rows)

                def E(w):
                    so = _bell(setup, x, x, w, Wa)
                    total = gains.kc1 * so.delta ** 2 / (2.0 * so.rho ** 2)
                    for p in pts:
                        sk = _bell(setup, p, x, w, Wa)
                        total += gains.kc2 / gains.N * sk.delta ** 2 / (2.0 * sk.rho ** 2)
                    return total

                fd = central_difference(E, Wc)
                ref = -Gamma @ fd
                assert np.linalg.norm(rhs - ref) <= 1e-6 * max(np.linalg.norm(ref), 1.0)


    def test_weighted_rows_equal_the_row_loop(self, setup):
        # the one expression over the row axis against the per-row sum it
        # replaces; the arithmetic is the same, so the results are equal
        rng = np.random.default_rng(26)
        x = np.array([-1.2, 1.7])
        Wc, Wa = rng.normal(size=(2, 3))
        Gamma = np.eye(3) + 0.1 * np.ones((3, 3))
        for N in (1, 3, 12):
            gains = dataclasses.replace(setup["gains"], N=N)
            pts = sa.sample_extrapolation_points(rng, x, N, setup["cfg"], setup["safeset"])
            rows = _bell(setup, np.vstack([x, pts]), x, Wc, Wa)
            acc, S = 0.0, 0.0
            for k in range(N + 1):
                w = gains.kc1 if k == 0 else gains.kc2 / N
                acc = acc + w * rows.omega[k] * rows.delta[k] / (rows.rho[k] * rows.rho[k])
                S = S + w * rows.Lambda[k]
            np.testing.assert_array_equal(sa.critic_rhs(gains, Gamma, rows), -Gamma @ acc)
            M = gains.beta * Gamma - Gamma @ S @ Gamma
            np.testing.assert_array_equal(sa.gamma_rhs(gains, Gamma, rows), 0.5 * (M + M.T))


class TestGammaDynamics:
    def test_pure_forgetting(self, setup):
        gains = dataclasses.replace(sa.build_scenario().gains, kc1=0.0, kc2=0.0)
        s = _bell(setup, np.ones((2, 2)), np.ones(2), np.ones(3), np.ones(3))
        G = np.diag([1.0, 2.0, 3.0])
        np.testing.assert_allclose(sa.gamma_rhs(gains, G, s), gains.beta * G,
                                   atol=1e-15)

    def test_scalar_contraction_sign(self, setup):
        gains = setup["gains"]
        x = np.array([1.5, 1.5 - 2.0])  # keep clear of the obstacle
        s = _bell(setup, np.array([x, x]), x, np.ones(3), np.ones(3))
        G = 10.0 * np.eye(3)
        dG = sa.gamma_rhs(gains, G, s)
        S = gains.kc1 * s.Lambda[0] + gains.kc2 / gains.N * s.Lambda[1]
        np.testing.assert_allclose(dG, 0.5 * ((gains.beta * G - G @ S @ G)
                                              + (gains.beta * G - G @ S @ G).T), atol=1e-12)
        assert np.all(np.linalg.eigvalsh(dG - gains.beta * G) <= 1e-12)

    def test_symmetric_output(self, setup):
        rng = np.random.default_rng(25)
        x = np.array([-1.0, 2.0])
        s = _bell(setup, np.array([x, x]), x, rng.normal(size=3), rng.normal(size=3))
        G = np.eye(3) + rng.normal(scale=0.01, size=(3, 3))
        G = 0.5 * (G + G.T)
        dG = sa.gamma_rhs(setup["gains"], G, s)
        np.testing.assert_allclose(dG, dG.T, atol=1e-15)


class TestActorProjection:
    # the projection radius is the constant WA_BOUND
    def test_interior_unchanged(self):
        gains = sa.build_scenario().gains
        Wa = np.array([1.0, 2.0, 3.0])
        Wc = np.array([0.0, 0.0, 0.0])
        np.testing.assert_allclose(sa.actor_rhs(gains, Wa, Wc),
                                   -gains.ka1 * (Wa - Wc))

    def test_inward_update_unchanged_at_boundary(self):
        gains = sa.build_scenario().gains
        Wa = np.array([1.05 * WA_BOUND, 0.0, 0.0])  # outside the nominal bound
        Wc = np.zeros(3)  # update points straight back toward the origin
        np.testing.assert_allclose(sa.actor_rhs(gains, Wa, Wc),
                                   -gains.ka1 * Wa)

    def test_outward_update_projected(self):
        gains = sa.build_scenario().gains
        Wa = np.array([WA_BOUND * np.sqrt(1.0 + PROJ_LAYER), 0.0, 0.0])  # outer edge
        Wc = 10.0 * Wa  # update points radially outward
        out = sa.actor_rhs(gains, Wa, Wc)
        # full projection: the radial component is removed entirely
        assert float(out @ Wa) == pytest.approx(0.0, abs=1e-12)

    def test_boundary_layer_is_continuous(self):
        gains = sa.build_scenario().gains
        Wc = np.array([5.0 * WA_BOUND, 0.0, 0.0])  # update points radially outward
        r_in = WA_BOUND * np.sqrt(1.0 - PROJ_LAYER)
        eps = 1e-7
        below = sa.actor_rhs(gains, np.array([r_in - eps, 0.0, 0.0]), Wc)
        above = sa.actor_rhs(gains, np.array([r_in + eps, 0.0, 0.0]), Wc)
        assert np.linalg.norm(below - above) <= 1e-4

    def test_norm_never_escapes(self):
        # forward-Euler push with an outward critic cannot leave the layer
        gains = dataclasses.replace(sa.build_scenario().gains, ka1=1.0)
        Wa = np.array([0.9 * WA_BOUND, 0.0, 0.0])
        Wc = np.array([50.0 * WA_BOUND, 0.0, 0.0])
        dt = 1e-3
        for _ in range(5000):
            Wa = Wa + dt * sa.actor_rhs(gains, Wa, Wc)
        assert np.linalg.norm(Wa) <= WA_BOUND * np.sqrt(1.0 + PROJ_LAYER) + 1e-6


class TestExcitation:
    def test_zero_history_flags_weak(self):
        Z = np.zeros((5, 3, 3))
        t = np.linspace(0.0, 2.0, 5)
        m = sa.excitation_metrics(t, Z, Z, window=1.0)
        assert m == {"c1_now": 0.0, "c2_window": 0.0, "c3_window": 0.0}
        assert sa.weak_excitation(m)

    def test_constant_scalar_history(self):
        # L = 1, Lambda(t) = 0.5 over a window of length 2
        t = np.linspace(0.0, 2.0, 21)
        lam = np.full((21, 1, 1), 0.5)
        m = sa.excitation_metrics(t, lam, lam, window=2.0)
        assert m["c1_now"] == pytest.approx(0.5)
        assert m["c2_window"] == pytest.approx(1.0)
        assert m["c3_window"] == pytest.approx(1.0)
        assert not sa.weak_excitation(m)

    def test_empty_history_raises(self):
        with pytest.raises(ValueError):
            sa.excitation_metrics([], [], [], window=1.0)


def test_gains_are_frozen_with_their_row_weights():
    gains = sa.build_scenario().gains
    three = dataclasses.replace(gains, N=3)
    np.testing.assert_array_equal(three.row_weights, [gains.kc1] + [gains.kc2 / 3] * 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        gains.N = 3
    with pytest.raises(ValueError):
        three.row_weights[0] = 1.0


def test_gains_validation():
    with pytest.raises(ValueError):
        dataclasses.replace(sa.build_scenario().gains, nu=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(sa.build_scenario().gains, kc1=-0.1)
    with pytest.raises(ValueError):
        dataclasses.replace(sa.build_scenario().gains, N=0)
