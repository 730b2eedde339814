import numpy as np
import pytest

import safeadp as sa
from safeadp.cost import BBAR_OFFSET
from safeadp.oracles import central_difference


@pytest.fixture()
def cfg():
    return sa.build_scenario().staf


def test_centers_at_origin(cfg):
    np.testing.assert_allclose(sa.centers(cfg, np.zeros(2)), np.zeros((3, 2)))


def test_centers_unit_state(cfg):
    x = np.array([1.0, 0.0])  # |x|^2 = 1 so the scaling factor is 0.25
    np.testing.assert_allclose(sa.centers(cfg, x), x + 0.25 * cfg.offsets, atol=1e-4)


def test_center_offsets_saturate(cfg):
    x = np.array([1e4, 0.0])
    offs = sa.centers(cfg, x) - x
    np.testing.assert_allclose(offs, 0.5 * cfg.offsets, atol=1e-6)


def test_sigma_zero_at_origin(cfg):
    assert np.all(sa.kernel_sigma(cfg, np.zeros(2), np.array([1.0, 2.0])) == 0.0)


def test_sigma_hand_value(cfg):
    # x = y = (1, 0): scaling 0.25, second center (1.2165, -0.125)
    sig = sa.kernel_sigma(cfg, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert sig[1] == pytest.approx(1.2165, abs=2e-4)


def test_grad_sigma_rows_are_centers(cfg):
    rng = np.random.default_rng(10)
    for _ in range(100):
        x = rng.uniform(-2, 2, size=2)
        y = rng.uniform(-2, 2, size=2)
        C = sa.centers(cfg, x)  # sigma's gradient in y, whatever y is
        for i in range(cfg.L):
            fd = central_difference(lambda yy, i=i: sa.kernel_sigma(cfg, yy, x)[i], y)
            assert np.linalg.norm(fd - C[i]) <= 1e-6 * max(np.linalg.norm(C[i]), 1.0)


def test_value_hat(cfg, barrier, safeset):
    assert sa.value_hat(cfg, barrier, np.zeros(3), np.zeros(2)) == 0.0
    boundary = safeset.center + np.array([0.0, safeset.radius])
    assert sa.value_hat(cfg, barrier, np.zeros(3), boundary) == pytest.approx(
        barrier.k_p / BBAR_OFFSET)
    # linear in the critic weights at the anchor
    rng = np.random.default_rng(11)
    x = rng.uniform(-2, 2, size=2)
    w1, w2 = rng.normal(size=(2, 3))
    bb = sa.barrier_Bbar(barrier, x)
    lhs = sa.value_hat(cfg, barrier, w1 + w2, x) - bb
    rhs = (sa.value_hat(cfg, barrier, w1, x) - bb) + (sa.value_hat(cfg, barrier, w2, x) - bb)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_policy_star_examples(cost_spec):
    sys_ = sa.build_scenario().system
    assert np.all(sa.policy_star(cost_spec, sys_, np.zeros(2)) == 0.0)
    u = sa.policy_star(cost_spec, sys_, np.array([10.0, 0.0]))
    np.testing.assert_allclose(u, [-0.5 * np.tanh(1.0), 0.0], atol=1e-12)
    # odd symmetry
    rng = np.random.default_rng(12)
    for _ in range(20):
        g = rng.normal(size=2)
        np.testing.assert_allclose(sa.policy_star(cost_spec, sys_, -g),
                                   -sa.policy_star(cost_spec, sys_, g),
                                   atol=1e-14)


def test_policy_hat_zero_when_inactive(cfg, barrier, cost_spec):
    sys_ = sa.build_scenario().system
    y = np.array([-1.0, -1.0])  # scheduling off, so the barrier gradient vanishes
    u = sa.policy_hat(cfg, barrier, cost_spec, sys_, np.zeros(3), y)
    assert np.all(u == 0.0)


def test_policy_hat_saturates_with_weight_growth(cfg, barrier, cost_spec):
    sys_ = sa.build_scenario().system
    y = np.array([1.0, 1.0])
    w = np.ones(3)
    for scale in (1e2, 1e4):
        u = sa.policy_hat(cfg, barrier, cost_spec, sys_, scale * w, y)
        assert np.all(np.abs(u) <= 0.5)
    u = sa.policy_hat(cfg, barrier, cost_spec, sys_, 1e6 * w, y)
    np.testing.assert_allclose(np.abs(u), 0.5, atol=1e-9)


def test_policy_hat_never_exceeds_box(cfg, barrier, cost_spec, safeset):
    sys_ = sa.build_scenario().system
    rng = np.random.default_rng(13)
    strict = 0
    for _ in range(200):
        y = rng.uniform(-2, 2, size=2)
        if safeset.h(y) < 0.05:
            continue
        w = rng.normal(scale=5.0, size=3)
        u = sa.policy_hat(cfg, barrier, cost_spec, sys_, w, y)
        assert np.all(np.abs(u) <= 0.5)
        strict += int(np.all(np.abs(u) < 0.5))
    assert strict > 100  # saturation to exactly u_max is the rare case


def test_policy_hat_matches_explicit_formula(cfg, barrier, cost_spec):
    # regression for the center bookkeeping at an anchor refresh y = x
    sys_ = sa.build_scenario().system
    rng = np.random.default_rng(14)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=2)
        w = rng.normal(size=3)
        th = sa.staf.SCALE_NUM * (x @ x) / (sa.staf.SCALE_DEN_OFFSET + x @ x)
        C = x[None, :] + th * cfg.offsets
        D = C.T @ w + sa.grad_Bbar(barrier, x)
        expected = -0.5 * np.tanh(D / (2.0 * 0.5 * cost_spec.r_diag))
        got = sa.policy_hat(cfg, barrier, cost_spec, sys_, w, x)
        np.testing.assert_allclose(got, expected, atol=1e-14)


def test_offsets_validated():
    with pytest.raises(ValueError):
        sa.StaFConfig(offsets=np.array([[0.0, -2.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        sa.StaFConfig(offsets=np.array([[0.0, 1.0], [0.0, 1.0]]))
    cfg = sa.build_scenario().staf
    np.testing.assert_allclose(np.linalg.norm(cfg.offsets, axis=1), 1.0, atol=1e-9)


def test_theta_range():
    cfg = sa.build_scenario().staf
    rng = np.random.default_rng(15)
    assert cfg.theta(np.zeros(2)) == 0.0
    for _ in range(100):
        x = rng.normal(scale=10.0, size=2)
        assert 0.0 <= cfg.theta(x) < sa.staf.SCALE_NUM
