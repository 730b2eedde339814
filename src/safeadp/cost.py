"""Barrier-augmented running cost: state penalty, saturating input penalty,
reciprocal barrier, and the bounded barrier surrogate used inside the
value-function approximator."""

from __future__ import annotations

import numpy as np

from .errors import BoundaryViolation, InputOutOfBox

H_MIN = 1e-9


class CostSpec:
    """Quadratic state penalty Q, diagonal input penalty R = diag(r_diag),
    symmetric input box |u_i| <= u_max: the cost and the input constraint
    that both controllers share."""

    def __init__(self, Q, r_diag, u_max):
        Q = np.asarray(Q, dtype=float)
        r_diag = np.asarray(r_diag, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be square")
        if not np.allclose(Q, Q.T, atol=1e-12):
            raise ValueError("Q must be symmetric")
        if np.linalg.eigvalsh(Q)[0] <= 0:
            raise ValueError("Q must be positive definite")
        if r_diag.ndim != 1 or np.any(r_diag <= 0):
            raise ValueError("r_diag entries must be positive")
        if u_max <= 0:
            raise ValueError("u_max must be positive")
        self.Q = Q
        self.r_diag = r_diag
        self.u_max = float(u_max)

    def state_cost(self, x):
        """x^T Q x per row of x (..., n)."""
        return np.vecdot(np.vecmat(x, self.Q), x)

    def quadratic_input_cost(self, u):
        """u^T R u per row of u (..., m)."""
        u = np.asarray(u, float)
        return np.vecdot(u, self.r_diag * u)


class BarrierSpec:
    """Barrier B = k_p s(x)/h(x) with quintic-smoothstep scheduling in h,
    and its bounded surrogate Bbar = k_p s(x)/(h(x)+a)."""

    def __init__(self, safeset, k_p, a, d_on, d_off):
        if k_p <= 0 or a <= 0:
            raise ValueError("k_p and a must be positive")
        if not d_on < d_off:
            raise ValueError("d_on must be smaller than d_off")
        self.safeset = safeset
        self.k_p = float(k_p)
        self.a = float(a)
        self.d_on = float(d_on)
        self.d_off = float(d_off)
        h0 = safeset.h(np.zeros_like(np.asarray(safeset.center, float)))
        if h0 < d_off:
            raise ValueError(
                f"scheduling must vanish at the origin: h(0)={h0:g} < d_off={d_off:g}"
            )


def _smoothstep(t):
    # quintic smoothstep, C^2 on [0, 1]
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def _smoothstep_slope(t):
    return 30.0 * t * t * (1.0 + t * (t - 2.0))


def _ramp(spec: BarrierSpec, h):
    # (d_off - h)/(d_off - d_on) clipped to [0, 1]: 1 at and below d_on,
    # 0 at and above d_off
    return np.minimum(np.maximum((spec.d_off - h) / (spec.d_off - spec.d_on), 0.0), 1.0)


def _s_of_h(spec: BarrierSpec, h):
    return _smoothstep(_ramp(spec, h))


def _ds_dh(spec: BarrierSpec, h):
    return -_smoothstep_slope(_ramp(spec, h)) / (spec.d_off - spec.d_on)


def _scheduled(spec: BarrierSpec, x, floor, what):
    """h and s(h) per row of x; BoundaryViolation if any row has h <= floor."""
    h = spec.safeset.h(x)
    if (h <= floor).any():
        raise BoundaryViolation(f"{what} at h={np.min(h):g} <= {floor:g}")
    return h, _s_of_h(spec, h)


def _grad_Bbar(spec: BarrierSpec, x, h, s):
    ha = h + spec.a
    return (spec.k_p * (_ds_dh(spec, h) * ha - s) / (ha * ha))[..., None] * spec.safeset.grad(x)


def barrier_B(spec: BarrierSpec, x):
    """Reciprocal barrier k_p s/h per row; blows up as h -> 0+. Raises
    BoundaryViolation if any row has h <= H_MIN."""
    h, s = _scheduled(spec, x, H_MIN, "barrier requested")
    return spec.k_p * s / h


def barrier_Bbar(spec: BarrierSpec, x):
    """Bounded barrier k_p s/(h+a) per row; finite on the boundary."""
    h, s = _scheduled(spec, x, -spec.a, "bounded barrier undefined")
    return spec.k_p * s / (h + spec.a)


def grad_Bbar(spec: BarrierSpec, x):
    """Analytic gradient of the bounded barrier per row (..., n); zero where
    the scheduling is off (h >= d_off), since s and ds/dh both vanish there."""
    return _grad_Bbar(spec, x, *_scheduled(spec, x, -spec.a, "bounded barrier undefined"))


def barrier_B_grad_Bbar(spec: BarrierSpec, x):
    """barrier_B and grad_Bbar per row from one evaluation of h and s: the
    two barrier terms of the Bellman error. Raises as barrier_B does."""
    h, s = _scheduled(spec, x, H_MIN, "barrier requested")
    return spec.k_p * s / h, _grad_Bbar(spec, x, h, s)


def input_penalty_Ru(spec: CostSpec, u):
    """Closed form of the saturating input penalty, per row of u (..., m).

    Per component: 2 u_max r_i [u atanh(u/u_max) + (u_max/2) log(1 - (u/u_max)^2)],
    with the analytic limit 2 u_max^2 r_i log 2 at the box corner.
    """
    u = np.asarray(u, dtype=float)
    ub = spec.u_max
    z = np.abs(u)
    if (z > ub * (1.0 + 1e-9)).any():
        raise InputOutOfBox(f"|u| exceeds the input box u_max={ub:g}: u={u}")
    z /= ub
    # corner components are zeroed in the closed form and take the limit
    inside = z < 1.0 - 1e-12
    ui = u * inside
    z *= inside
    inner = 2.0 * ub * spec.r_diag * (ui * np.arctanh(ui / ub) + 0.5 * ub * np.log1p(-z * z))
    return (inner + ~inside * (2.0 * ub * ub * spec.r_diag * np.log(2.0))).sum(-1)


def instantaneous_cost(cost: CostSpec, bar: BarrierSpec, x, u):
    """x^T Q x + Ru(u) + B(x) per row; bounded below by lambda_min(Q) ||x||^2."""
    return cost.state_cost(x) + input_penalty_Ru(cost, u) + barrier_B(bar, x)
