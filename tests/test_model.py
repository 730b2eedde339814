import numpy as np
import pytest

import safeadp as sa
from safeadp.errors import SingularGradient


def test_h_examples(safeset):
    assert safeset.h([2.0, 2.0]) == pytest.approx(-1.0)
    assert safeset.h([2.0, 3.0]) == pytest.approx(0.0)
    assert safeset.h([2.0, 4.0]) == pytest.approx(1.0)


def test_grad_examples(safeset):
    h, g = safeset.h_grad([2.0, 4.0])
    assert h == pytest.approx(1.0)
    np.testing.assert_allclose(g, [0.0, 1.0])
    origin_set = sa.CircularSafeSet(center=np.array([-1.0, -1.0]), radius=0.5)
    h, g = origin_set.h_grad([-1.0 + 3.0, -1.0 + 4.0])
    assert h == pytest.approx(4.5)
    np.testing.assert_allclose(g, [0.6, 0.8])


def test_grad_unit_norm(safeset):
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.uniform(-2, 6, size=2)
        if np.linalg.norm(x - safeset.center) < 0.1:
            continue
        assert np.linalg.norm(safeset.h_grad(x)[1]) == pytest.approx(1.0, abs=1e-12)


def test_grad_singular_at_center(safeset):
    for x in ([2.0, 2.0], [[3.0, 3.5], [2.0, 2.0]]):  # one row, or one row of a batch
        with pytest.raises(SingularGradient):
            safeset.h_grad(x)


def test_grad_matches_finite_differences(safeset):
    from safeadp.oracles import central_difference
    rng = np.random.default_rng(2)
    count = 0
    while count < 100:
        x = rng.uniform(-2, 6, size=2)
        if np.linalg.norm(x - safeset.center) < 0.1:
            continue
        fd = central_difference(safeset.h, x)
        g = safeset.h_grad(x)[1]
        assert np.linalg.norm(fd - g) / np.linalg.norm(g) <= 1e-6
        count += 1


def test_boundary_iff_radius(safeset):
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = rng.normal(size=2)
        d /= np.linalg.norm(d)
        x = safeset.center + safeset.radius * d
        assert abs(safeset.h(x)) <= 1e-12


def _cbf_margin(sys_, safeset, alpha_scale, x, u):
    """L_f h + L_g h u + alpha_scale h, as cbf_condition's a + b u."""
    x = np.asarray(x, float)
    a, b = sa.cbf_condition(safeset, alpha_scale, x, sys_.drift(x), sys_.input_map(x))
    return a + np.vecdot(b, u)


def test_cbf_margin_examples(safeset):
    sys_ = sa.build_scenario().system
    alpha = 1.0
    x = np.array([2.0, 4.0])
    assert _cbf_margin(sys_, safeset, alpha, x, [0.0, 0.0]) == pytest.approx(1.0)
    assert _cbf_margin(sys_, safeset, alpha, x, [0.0, -1.0]) == pytest.approx(0.0)
    assert _cbf_margin(sys_, safeset, alpha, x, [0.0, 0.5]) == pytest.approx(1.5)


def _clf_margin(sys_, Q, gamma_scale, x, u):
    """L_f V + L_g V u + gamma_scale V, as clf_condition's a + b u."""
    x = np.asarray(x, float)
    a, b = sa.clf_condition(Q, gamma_scale, x, sys_.drift(x), sys_.input_map(x))
    return a + np.vecdot(b, u)


def test_clf_margin_examples():
    sys_ = sa.build_scenario().system
    gamma = 10.0
    Q = np.eye(2)
    assert _clf_margin(sys_, Q, gamma, [1.0, 0.0], [0.0, 0.0]) == pytest.approx(10.0)
    assert _clf_margin(sys_, Q, gamma, [1.0, 0.0], [-5.0, 0.0]) == pytest.approx(0.0)
    assert _clf_margin(sys_, Q, gamma, [0.0, 0.0], [0.3, -0.2]) == pytest.approx(0.0)


def test_margins_affine_in_u(safeset):
    sys_ = sa.build_scenario().system
    alpha = 1.0
    gamma = 10.0
    Q = np.array([[2.0, 0.5], [0.5, 1.0]])
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.uniform(-1, 5, size=2)
        if np.linalg.norm(x - safeset.center) < 0.1:
            continue
        u1, u2 = rng.uniform(-0.5, 0.5, size=(2, 2))
        for margin in (
            lambda u: _cbf_margin(sys_, safeset, alpha, x, u),
            lambda u: _clf_margin(sys_, Q, gamma, x, u),
        ):
            base = margin(np.zeros(2))
            lhs = margin(u1 + u2) - base
            rhs = (margin(u1) - base) + (margin(u2) - base)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_system_invariants():
    with pytest.raises(ValueError):
        sa.linear_system(A=np.eye(2), B=np.zeros((2, 2)))  # g vanishes
    sys_ = sa.linear_system(A=np.array([[0.0, 1.0], [-1.0, -0.5]]),
                            B=np.array([[0.0], [1.0]]))
    np.testing.assert_allclose(sys_.xdot(np.array([1.0, 0.0]), np.array([0.0])),
                               [0.0, -1.0])


def test_safeset_requires_origin_inside():
    with pytest.raises(ValueError):
        sa.CircularSafeSet(center=np.array([0.5, 0.0]), radius=1.0)
