"""Control-affine system models and safe-set geometry.

The safe set is any object with ``h(x)`` and ``h_grad(x)``; the circular set
below is the shipped instance. Systems expose their dimensions ``n`` and
``m`` and the ``drift`` and ``input_map`` callables; the input box and the
cost belong to ``CostSpec``.

Every function of a state takes rows: ``x`` of shape ``(..., n)`` gives a
result with the same leading axes, and a single state ``(n,)`` is the case
with no row axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularGradient

GRAD_TOL = 1e-12


class SystemModel:
    """xdot = drift(x) + input_map(x) @ u with n states and m inputs.

    drift maps states (..., n) to (..., n); input_map maps them to an
    array that broadcasts to (..., n, m), so a constant n x m matrix
    serves every row. Both are probed on a batch of 8 states here, and
    input_map must not vanish at any of them.
    """

    def __init__(self, n, m, drift, input_map):
        if n <= 0 or m <= 0:
            raise ValueError("state and input dimensions must be positive")
        self.n = int(n)
        self.m = int(m)
        self.drift = drift
        self.input_map = input_map

        f0 = np.asarray(drift(np.zeros(self.n)), dtype=float)
        if not np.allclose(f0, 0.0, atol=0.0):
            raise ValueError("drift must vanish exactly at the origin")
        probes = np.random.default_rng(0).normal(scale=2.0, size=(8, self.n))
        try:
            f_shape = np.shape(drift(probes))
            G = np.broadcast_to(np.asarray(input_map(probes), float), (8, self.n, self.m))
        except ValueError as exc:
            raise ValueError(f"drift and input_map must take (R, n) rows: {exc}") from None
        if f_shape != probes.shape:
            raise ValueError(f"drift must map (R, n) rows to (R, n): got {f_shape}")
        if not (np.linalg.norm(G, axis=(-2, -1)) > 0.0).all():
            raise ValueError("input_map must not vanish at a probe state")

    def xdot(self, x, u):
        return np.asarray(self.drift(x), float) + np.matvec(self.input_map(x), u)


def single_integrator():
    """Planar single integrator: f = 0, g = I2."""
    eye = np.eye(2)
    return SystemModel(2, 2, drift=lambda x: np.zeros(np.shape(x)), input_map=lambda x: eye)


def linear_system(A, B):
    """Generic affine system xdot = A x + B u from config matrices."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if B.ndim != 2 or B.shape[0] != A.shape[0]:
        raise ValueError("B must be n x m")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("A and B must be finite")
    return SystemModel(A.shape[0], B.shape[1], drift=lambda x: np.matvec(A, x),
                       input_map=lambda x: B)


@dataclass(frozen=True)
class CircularSafeSet:
    """Safe set {x : h(x) >= 0} with h the distance to a disk boundary.

    The disk (obstacle) has center ``center`` and radius ``radius``; the
    safe set is its exterior, so the origin must lie strictly outside.
    A custom safe set follows the same row contract: ``h`` maps states
    (..., n) to (...) and ``h_grad`` maps them to the pair of h (...) and
    its gradient (..., n).
    """

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if np.linalg.norm(self.center) <= self.radius:
            raise ValueError("origin must be strictly inside the safe set")

    def h(self, x):
        d = np.asarray(x, float) - self.center
        return np.sqrt(np.vecdot(d, d)) - self.radius

    def h_grad(self, x):
        """h and its gradient (x - center)/|x - center| per row, from one
        difference and one norm; SingularGradient at the set center."""
        d = np.asarray(x, float) - self.center
        nd = np.sqrt(np.vecdot(d, d))
        if (nd < GRAD_TOL).any():
            raise SingularGradient(f"gradient of h undefined at the set center {self.center}")
        return nd - self.radius, d / nd[..., None]


def cbf_condition(safeset, alpha_scale, x, f, g):
    """The CBF condition at x as an affine function of the input: (a, b)
    with L_f h + L_g h u + alpha_scale h = a + b u, per row of x, given the
    drift f and the input map g at x."""
    h, gh = safeset.h_grad(x)
    return np.vecdot(gh, f) + alpha_scale * h, np.vecmat(gh, g)


def clf_condition(Q, gamma_scale, x, f, g):
    """The CLF condition for V(x) = x^T Q x at x as an affine function of
    the input: (a, b) with L_f V + L_g V u + gamma_scale V = a + b u, per row
    of x, given the drift f and the input map g at x."""
    gV = 2.0 * np.matvec(Q, x)
    return np.vecdot(gV, f) + gamma_scale * np.vecdot(np.vecmat(x, Q), x), np.vecmat(gV, g)


def cbf_margin(sys, safeset, alpha_scale, x, u):
    """L_f h + L_g h u + alpha_scale h per row of x and u; nonnegative for
    barrier-admissible u."""
    a, b = cbf_condition(safeset, alpha_scale, x, sys.drift(x), sys.input_map(x))
    return a + np.vecdot(b, u)

