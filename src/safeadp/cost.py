"""Barrier-augmented running cost: state penalty, saturating input penalty,
reciprocal barrier, and the bounded barrier surrogate used inside the
value-function approximator."""

from __future__ import annotations

import numpy as np

from .errors import BoundaryViolation, InputOutOfBox, SingularGradient

H_MIN = 1e-9
BBAR_OFFSET = 0.5  # repo default: the bounded barrier's offset a in k_p s/(h + a)
D_ON = 0.2  # repo default: the scheduling is fully on at and below this h
D_OFF = 1.0  # repo default: the scheduling is fully off at and above this h


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
        # the per-input scale of the saturating policy and the input penalty
        self.two_umax_r = 2.0 * self.u_max * r_diag

    def state_cost(self, x):
        """x^T Q x per row of x (..., n)."""
        return np.vecdot(np.vecmat(x, self.Q), x)

    def quadratic_input_cost(self, u):
        """u^T R u per row of u (..., m)."""
        u = np.asarray(u, float)
        return np.vecdot(u, self.r_diag * u)


class BarrierSpec:
    """Barrier B = k_p s(x)/h(x) with quintic-smoothstep scheduling in h,
    and its bounded surrogate Bbar = k_p s(x)/(h(x)+BBAR_OFFSET)."""

    def __init__(self, safeset, k_p):
        if k_p <= 0:
            raise ValueError("k_p must be positive")
        self.safeset = safeset
        self.k_p = float(k_p)
        h0 = safeset.h(np.zeros_like(np.asarray(safeset.center, float)))
        if h0 < D_OFF:
            raise ValueError(
                f"scheduling must vanish at the origin: h(0)={h0:g} < D_OFF={D_OFF:g}"
            )

    def schedule(self, h):
        """The scheduling s(h) and its slope ds/dh per row of h: the quintic
        smoothstep s = t^3 (10 - 15 t + 6 t^2), C^2, of the ramp
        t = (D_OFF - h)/(D_OFF - D_ON) clipped to [0, 1]. So s is 1 at and
        below D_ON and 0 at and above D_OFF, and ds/dh is 0 at both."""
        width = D_OFF - D_ON
        t = np.minimum(np.maximum((D_OFF - h) / width, 0.0), 1.0)
        return (t * t * t * (10.0 + t * (-15.0 + 6.0 * t)),
                -30.0 * t * t * (1.0 + t * (t - 2.0)) / width)


def _floor_checked(h, floor, what):
    """The smallest h over the rows of h (inf for none); BoundaryViolation
    if it is at or below floor."""
    h_min = h.min(initial=np.inf)
    if h_min <= floor:
        raise BoundaryViolation(f"{what} at h={h_min:g} <= {floor:g}")
    return h_min


def _checked_h(spec: BarrierSpec, x, floor, what):
    """h per row of x; BoundaryViolation if any row has h <= floor."""
    h = spec.safeset.h(x)
    _floor_checked(h, floor, what)
    return h


def _checked_h_grad(spec: BarrierSpec, x, floor, what):
    """h, its gradient and the smallest h over the rows of x, from one
    safeset.h_grad; BoundaryViolation if any row has h <= floor. A row at
    the set center raises BoundaryViolation, as h alone would, when it is
    also at or below the floor, and SingularGradient otherwise."""
    try:
        h, gh = spec.safeset.h_grad(x)
    except SingularGradient:
        _checked_h(spec, x, floor, what)
        raise
    return h, gh, _floor_checked(h, floor, what)


def _grad_Bbar(spec: BarrierSpec, h, gh, s, ds):
    ha = h + BBAR_OFFSET
    return (spec.k_p * (ds * ha - s) / (ha * ha))[..., None] * gh


def barrier_B(spec: BarrierSpec, x):
    """Reciprocal barrier k_p s/h per row; blows up as h -> 0+. Raises
    BoundaryViolation if any row has h <= H_MIN."""
    h = _checked_h(spec, x, H_MIN, "barrier requested")
    return spec.k_p * spec.schedule(h)[0] / h


def barrier_Bbar(spec: BarrierSpec, x):
    """Bounded barrier k_p s/(h+BBAR_OFFSET) per row; finite on the boundary."""
    h = _checked_h(spec, x, -BBAR_OFFSET, "bounded barrier undefined")
    return spec.k_p * spec.schedule(h)[0] / (h + BBAR_OFFSET)


def grad_Bbar(spec: BarrierSpec, x):
    """Analytic gradient of the bounded barrier per row (..., n); zero where
    the scheduling is off (h >= D_OFF), since s and ds/dh both vanish there."""
    h, gh, _ = _checked_h_grad(spec, x, -BBAR_OFFSET, "bounded barrier undefined")
    return _grad_Bbar(spec, h, gh, *spec.schedule(h))


def barrier_B_grad_Bbar(spec: BarrierSpec, x):
    """barrier_B and grad_Bbar per row from one evaluation of h, grad h and
    the schedule: the two barrier terms of the Bellman error. Raises as
    barrier_B does. When every row lies at or beyond D_OFF, where s and
    ds/dh vanish, both are exact zeros and the schedule is not evaluated."""
    h, gh, h_min = _checked_h_grad(spec, x, H_MIN, "barrier requested")
    if h_min >= D_OFF:
        return np.zeros(h.shape), np.zeros(gh.shape)
    s, ds = spec.schedule(h)
    return spec.k_p * s / h, _grad_Bbar(spec, h, gh, s, ds)


def input_penalty_Ru(spec: CostSpec, u):
    """Closed form of the saturating input penalty, per row of u (..., m).

    Per component: 2 u_max r_i [u atanh(u/u_max) + (u_max/2) log(1 - (u/u_max)^2)],
    with the analytic limit 2 u_max^2 r_i log 2 at the box corner
    (|u_i|/u_max >= 1 - 1e-12). The largest |u_i| decides both the box check
    and whether any component sits at the corner; only then is the closed
    form masked, since it is not finite where tanh saturated to exactly
    +-u_max.
    """
    u = np.asarray(u, dtype=float)
    ub = spec.u_max
    z = np.abs(u)
    z_max = z.max(initial=0.0)
    if z_max > ub * (1.0 + 1e-9):
        raise InputOutOfBox(f"|u| exceeds the input box u_max={ub:g}: u={u}")
    z /= ub
    if z_max / ub < 1.0 - 1e-12:  # no corner component
        return (spec.two_umax_r * (u * np.arctanh(u / ub) + 0.5 * ub * np.log1p(-z * z))).sum(-1)
    # corner components are zeroed in the closed form and take the limit
    inside = z < 1.0 - 1e-12
    ui = u * inside
    z *= inside
    inner = spec.two_umax_r * (ui * np.arctanh(ui / ub) + 0.5 * ub * np.log1p(-z * z))
    return (inner + ~inside * (2.0 * ub * ub * spec.r_diag * np.log(2.0))).sum(-1)


def instantaneous_cost(cost: CostSpec, bar: BarrierSpec, x, u):
    """x^T Q x + Ru(u) + B(x) per row; bounded below by lambda_min(Q) ||x||^2."""
    return cost.state_cost(x) + input_penalty_Ru(cost, u) + barrier_B(bar, x)
