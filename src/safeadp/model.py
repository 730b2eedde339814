"""Control-affine system models and safe-set geometry.

The safe set is any object with ``h(x)`` and ``grad(x)``; the circular set
below is the shipped instance. Systems expose ``drift`` and ``input_map``
callables plus a symmetric input box ``u_max``.

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
    """xdot = drift(x) + input_map(x) @ u with |u_i| <= u_max.

    drift maps states (..., n) to (..., n); input_map maps them to an
    array that broadcasts to (..., n, m), so a constant n x m matrix
    serves every row. Both are probed on a batch of 8 states here.
    """

    def __init__(self, n, m, drift, input_map, u_max, g_bound, name="system"):
        if n <= 0 or m <= 0:
            raise ValueError("state and input dimensions must be positive")
        if u_max <= 0:
            raise ValueError("u_max must be positive")
        self.n = int(n)
        self.m = int(m)
        self.drift = drift
        self.input_map = input_map
        self.u_max = float(u_max)
        self.g_bound = float(g_bound)
        self.name = name

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
        for gn in np.linalg.norm(G, 2, axis=(-2, -1)):
            if not (0.0 < gn <= self.g_bound + 1e-9):
                raise ValueError(
                    f"input_map norm {gn:g} outside (0, {self.g_bound:g}] at probe state"
                )

    def xdot(self, x, u):
        return np.asarray(self.drift(x), float) + np.matvec(self.input_map(x), u)


def single_integrator(u_max):
    """Planar single integrator: f = 0, g = I2."""
    eye = np.eye(2)
    return SystemModel(
        n=2,
        m=2,
        drift=lambda x: np.zeros(np.shape(x)),
        input_map=lambda x: eye,
        u_max=u_max,
        g_bound=1.0,
        name="single_integrator",
    )


def linear_system(A, B, u_max):
    """Generic affine system xdot = A x + B u from config matrices."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if B.ndim != 2 or B.shape[0] != A.shape[0]:
        raise ValueError("B must be n x m")
    return SystemModel(
        n=A.shape[0],
        m=B.shape[1],
        drift=lambda x: np.matvec(A, x),
        input_map=lambda x: B,
        u_max=u_max,
        g_bound=np.linalg.norm(B, 2) + 1e-9,
        name="linear",
    )


@dataclass(frozen=True)
class CircularSafeSet:
    """Safe set {x : h(x) >= 0} with h the distance to a disk boundary.

    The disk (obstacle) has center ``center`` and radius ``radius``; the
    safe set is its exterior, so the origin must lie strictly outside.
    A custom safe set follows the same row contract: ``h`` maps states
    (..., n) to (...) and ``grad`` maps them to (..., n).
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

    def grad(self, x):
        d = np.asarray(x, float) - self.center
        nd = np.sqrt(np.vecdot(d, d))[..., None]
        if (nd < GRAD_TOL).any():
            raise SingularGradient(f"gradient of h undefined at the set center {self.center}")
        return d / nd


def cbf_margin(sys, safeset, alpha_scale, x, u):
    """L_f h + L_g h u + alpha_scale h per row of x and u; nonnegative for
    barrier-admissible u."""
    gh = safeset.grad(x)
    return (np.vecdot(gh, sys.drift(x)) + np.vecdot(gh, np.matvec(sys.input_map(x), u))
            + alpha_scale * safeset.h(x))


def clf_margin(sys, Q, gamma_scale, x, u):
    """L_f V + L_g V u + gamma_scale V per row of x and u, for V(x) = x^T Q x;
    nonpositive when stabilizing."""
    Q = np.asarray(Q, float)
    gV = 2.0 * np.matvec(Q, x)
    return (np.vecdot(gV, sys.drift(x)) + np.vecdot(gV, np.matvec(sys.input_map(x), u))
            + gamma_scale * np.vecdot(np.vecmat(x, Q), x))
