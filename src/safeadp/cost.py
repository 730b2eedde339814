"""Barrier-augmented running cost: state penalty, saturating input penalty,
reciprocal barrier, and the bounded barrier surrogate used inside the
value-function approximator."""

from __future__ import annotations

import numpy as np

from .errors import BoundaryViolation, InputOutOfBox

H_MIN = 1e-9


class CostSpec:
    """Quadratic state penalty Q, diagonal input penalty R = diag(r_diag),
    symmetric input box u_max."""

    def __init__(self, Q, r_diag, u_max):
        Q = np.asarray(Q, dtype=float)
        r_diag = np.asarray(r_diag, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be square")
        if not np.allclose(Q, Q.T, atol=1e-12):
            raise ValueError("Q must be symmetric")
        eigs = np.linalg.eigvalsh(Q)
        if eigs[0] <= 0:
            raise ValueError("Q must be positive definite")
        if r_diag.ndim != 1 or np.any(r_diag <= 0):
            raise ValueError("r_diag entries must be positive")
        if u_max <= 0:
            raise ValueError("u_max must be positive")
        self.Q = Q
        self.r_diag = r_diag
        self.u_max = float(u_max)
        self.q_lo = float(eigs[0])
        self.q_hi = float(eigs[-1])
        self.m = r_diag.size

    def state_cost(self, x):
        x = np.asarray(x, float)
        return float(x @ self.Q @ x)

    def quadratic_input_cost(self, u):
        u = np.asarray(u, float)
        return float(u @ (self.r_diag * u))


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


def _s_of_h(spec: BarrierSpec, h):
    if h <= spec.d_on:
        return 1.0
    if h >= spec.d_off:
        return 0.0
    t = (spec.d_off - h) / (spec.d_off - spec.d_on)
    return _smoothstep(t)


def _ds_dh(spec: BarrierSpec, h):
    if h <= spec.d_on or h >= spec.d_off:
        return 0.0
    t = (spec.d_off - h) / (spec.d_off - spec.d_on)
    return -_smoothstep_slope(t) / (spec.d_off - spec.d_on)


def scheduling_s(spec: BarrierSpec, x):
    """Scheduling weight in [0, 1]: 1 near the boundary, 0 far from it."""
    return _s_of_h(spec, spec.safeset.h(x))


def barrier_B(spec: BarrierSpec, x):
    """Reciprocal barrier k_p s/h; blows up as h -> 0+."""
    h = spec.safeset.h(x)
    if h <= H_MIN:
        raise BoundaryViolation(f"barrier requested at h={h:g} <= {H_MIN:g}")
    return spec.k_p * _s_of_h(spec, h) / h


def barrier_Bbar(spec: BarrierSpec, x):
    """Bounded barrier k_p s/(h+a); finite on the boundary."""
    h = spec.safeset.h(x)
    if h <= -spec.a:
        raise BoundaryViolation(f"bounded barrier undefined at h={h:g} <= -a")
    return spec.k_p * _s_of_h(spec, h) / (h + spec.a)


def grad_Bbar(spec: BarrierSpec, x):
    """Analytic gradient of the bounded barrier."""
    h = spec.safeset.h(x)
    if h <= -spec.a:
        raise BoundaryViolation(f"bounded barrier undefined at h={h:g} <= -a")
    s = _s_of_h(spec, h)
    dsdh = _ds_dh(spec, h)
    if s == 0.0 and dsdh == 0.0:
        return np.zeros_like(np.asarray(x, float))
    gh = spec.safeset.grad(x)
    ha = h + spec.a
    return spec.k_p * (dsdh * ha - s) / (ha * ha) * gh


def input_penalty_Ru(spec: CostSpec, u):
    """Closed form of the saturating input penalty.

    Per component: 2 u_max r_i [u atanh(u/u_max) + (u_max/2) log(1 - (u/u_max)^2)],
    with the analytic limit 2 u_max^2 r_i log 2 at the box corner.
    """
    u = np.asarray(u, dtype=float)
    ub = spec.u_max
    if np.any(np.abs(u) > ub * (1.0 + 1e-9)):
        raise InputOutOfBox(f"|u| exceeds the input box u_max={ub:g}: u={u}")
    total = 0.0
    for ui, ri in zip(u, spec.r_diag):
        z = abs(ui) / ub
        if z >= 1.0 - 1e-12:
            total += 2.0 * ub * ub * ri * np.log(2.0)
        else:
            total += 2.0 * ub * ri * (ui * np.arctanh(ui / ub) + 0.5 * ub * np.log1p(-z * z))
    return float(total)


def instantaneous_cost(cost: CostSpec, bar: BarrierSpec, x, u):
    """x^T Q x + Ru(u) + B(x); bounded below by q_lo ||x||^2."""
    return cost.state_cost(x) + input_penalty_Ru(cost, u) + barrier_B(bar, x)
