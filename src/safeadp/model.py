"""The linear plant and safe-set geometry.

The plant is its matrices: ``SystemModel(A, B)`` is xdot = A x + B u, and
callers read ``A``, ``B``, ``n`` and ``m`` directly (the drift at x is
A x, the input map is B). Every plant this reproduction builds is linear; a
nonlinear one would need drift and input-map callables back. The safe set
is any object with ``h(x)`` and ``h_grad(x)``; the circular set below is the
shipped instance. The input box and the cost belong to ``CostSpec``.

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
    """The linear plant xdot = A x + B u with n states and m inputs.

    A must be square and B n x m, both finite, and B must not be all zero
    (so neither dimension is 0); each is stored as a float array.
    """

    def __init__(self, A, B):
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise ValueError("B must be n x m")
        if not (np.isfinite(A).all() and np.isfinite(B).all()):
            raise ValueError("A and B must be finite")
        if not B.any():
            raise ValueError("B must not be all zero")
        self.A, self.B = A, B
        self.n, self.m = B.shape

    def xdot(self, x, u):
        """A x + B u per row of x (..., n) and u (..., m)."""
        return np.matvec(self.A, x) + np.matvec(self.B, u)


def single_integrator():
    """Planar single integrator: A = 0, B = I2."""
    return SystemModel(np.zeros((2, 2)), np.eye(2))


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


def cbf_condition(safeset, alpha_scale, sys: SystemModel, x):
    """The CBF condition of the plant sys at x as an affine function of the
    input: (a, b) with L_f h + L_g h u + alpha_scale h = a + b u, per row of
    x, for the drift A x and the input map B."""
    h, gh = safeset.h_grad(x)
    return np.vecdot(gh, np.matvec(sys.A, x)) + alpha_scale * h, np.vecmat(gh, sys.B)


def clf_condition(Q, gamma_scale, sys: SystemModel, x):
    """The CLF condition for V(x) = x^T Q x of the plant sys at x as an
    affine function of the input: (a, b) with L_f V + L_g V u + gamma_scale
    V = a + b u, per row of x, for the drift A x and the input map B."""
    gV = 2.0 * np.matvec(Q, x)
    return (np.vecdot(gV, np.matvec(sys.A, x)) + gamma_scale * np.vecdot(np.vecmat(x, Q), x),
            np.vecmat(gV, sys.B))
