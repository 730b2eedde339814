"""Online learner: Bellman-error evaluation, extrapolation-point sampling,
normalized-gradient critic update, gain-matrix dynamics, projected actor
update, and the excitation history."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cost import H_MIN, BarrierSpec, CostSpec, barrier_B_grad_Bbar, input_penalty_Ru
from .staf import StaFConfig, centers, policy_star

WA_BOUND = 20.0  # repo default: actor projection radius
PROJ_LAYER = 0.05  # boundary-layer fraction of the actor projection
GAMMA0 = 1.0  # repo default: Gamma(0) = GAMMA0 * I
WEAK_EXCITATION_TOL = 1e-8  # every excitation surrogate below it flags weak excitation
PE_WINDOW = 1.0  # s: the trailing span of history that c2 and c3 integrate


@dataclass(frozen=True)
class LearnerGains:
    """The learner's gains, frozen so that row_weights, the critic's
    weights over the rows of a learner sample, is built once from kc1, kc2
    and N and stays true: (kc1, kc2/N, ..., kc2/N), for the on-trajectory
    row and the N extrapolated ones."""

    kc1: float
    kc2: float
    ka1: float
    nu: float
    beta: float
    N: int
    seed: int
    row_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        for name in ("kc1", "kc2", "ka1", "beta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        w = np.full(self.N + 1, self.kc2 / self.N)
        w[0] = self.kc1
        w.flags.writeable = False
        object.__setattr__(self, "row_weights", w)


@dataclass
class BellmanSample:
    """Bellman error and its normalized regressor at evaluation points.

    Every field carries the rows of the evaluation: u (..., m), the
    state derivative ydot (..., n) under u, omega (..., L), the state cost
    y^T Q y, omega_B, rho, its square rho_sq and delta (...), Lambda
    (..., L, L).
    """

    u: np.ndarray
    ydot: np.ndarray
    state_cost: np.ndarray
    omega: np.ndarray
    omega_B: np.ndarray
    rho: np.ndarray
    rho_sq: np.ndarray
    delta: np.ndarray
    Lambda: np.ndarray = field(repr=False)


def bellman_at(y, x, Wc, Wa, sys, cost: CostSpec, bar: BarrierSpec,
               cfg: StaFConfig, gains: LearnerGains):
    """Evaluate the Bellman error at the rows of y with kernels anchored at
    the rows of x, under critic and actor weights Wc, Wa (..., L); all four
    broadcast against each other.

    A row with y = x gives the on-trajectory error; otherwise it is an
    extrapolated sample. The input u is policy_hat at each row. Raises
    BoundaryViolation if any row lies outside the interior.
    """
    y = np.asarray(y, float)
    C = centers(cfg, x)  # the kernel gradient at every y
    B, gB = barrier_B_grad_Bbar(bar, y)
    u = policy_star(cost, sys, np.vecmat(Wa, C) + gB)
    ydot = sys.xdot(y, u)
    omega = np.matvec(C, ydot)
    omega_B = np.vecdot(gB, ydot)
    xQx = cost.state_cost(y)
    r = xQx + input_penalty_Ru(cost, u) + B  # instantaneous_cost
    delta = np.vecdot(Wc, omega) + r + omega_B
    rho = 1.0 + gains.nu * np.vecdot(omega, omega)
    rho_sq = rho * rho
    Lam = omega[..., :, None] * omega[..., None, :]
    Lam /= rho_sq[..., None, None]
    return BellmanSample(u=u, ydot=ydot, state_cost=xQx, omega=omega, omega_B=omega_B,
                         rho=rho, rho_sq=rho_sq, delta=delta, Lambda=Lam)


def sample_extrapolation_points(rng, x, N, cfg: StaFConfig, safeset):
    """N x n array of points uniform on the 0.1 theta(x) square centered at x.

    Points with h <= H_MIN are resampled up to 16 times, then collapse
    to x.
    """
    x = np.asarray(x, float)
    half = 0.05 * cfg.theta(x)
    pts = np.empty((N, x.size))
    for k in range(N):
        for _attempt in range(16):
            pts[k] = x + rng.uniform(-half, half, size=x.shape)
            if safeset.h(pts[k]) > H_MIN:
                break
        else:
            pts[k] = x
    return pts


def critic_rhs(gains: LearnerGains, Gamma, rows: BellmanSample):
    """Normalized-gradient critic update direction over the learner's rows
    (row 0 on the trajectory, rows 1..N extrapolated), weighted by
    gains.row_weights."""
    w = gains.row_weights[:, None]
    acc = (w * rows.omega * rows.delta[:, None] / rows.rho_sq[:, None]).sum(axis=0)
    return -np.asarray(Gamma, float) @ acc


def gamma_rhs(gains: LearnerGains, Gamma, rows: BellmanSample):
    """Gain-matrix dynamics, symmetrized: forgetting growth beta Gamma minus
    the contraction Gamma S Gamma, where S = kc1 Lambda_0 + (kc2/N) sum_k
    Lambda_k is the curvature of the critic update. The symmetrized form is
    exactly symmetric in floating point, and it alone keeps the integrated
    Gamma symmetric: the runner does not repair Gamma."""
    Gamma = np.asarray(Gamma, float)
    S = (gains.row_weights[:, None, None] * rows.Lambda).sum(axis=0)
    M = gains.beta * Gamma - Gamma @ S @ Gamma
    return 0.5 * (M + M.T)


def actor_rhs(gains: LearnerGains, Wa, Wc):
    """Projected actor update: tracks the critic, radially scaled inside a
    smooth boundary layer so that ||Wa|| stays within
    WA_BOUND * sqrt(1 + PROJ_LAYER)."""
    Wa = np.asarray(Wa, float)
    mu = -gains.ka1 * (Wa - np.asarray(Wc, float))
    nw2 = float(Wa @ Wa)
    wb2 = WA_BOUND ** 2
    outward = float(Wa @ mu)
    if nw2 <= wb2 * (1.0 - PROJ_LAYER) or outward <= 0.0:
        return mu
    theta = min(1.0, (nw2 - wb2 * (1.0 - PROJ_LAYER)) / (wb2 * PROJ_LAYER))
    return mu - theta * (outward / nw2) * Wa


def excitation_history(times, lam, window):
    """The excitation history of a run at its redraw times (at least one),
    from the Lambda array (K, N + 1, L, L) of each redraw's rows: row 0 on the
    trajectory, rows 1..N extrapolated.

    Returns c1 at each redraw, the min eigenvalue of the mean extrapolated
    Lambda, and the weak-excitation flag: true when c1 at the last redraw
    and c2 / c3, the min eigenvalues of the trapezoid-rule time integrals of
    the mean extrapolated and the on-trajectory Lambda over the trailing
    window, are all below WEAK_EXCITATION_TOL.
    """
    times = np.asarray(times, float)
    lam_mean = lam[:, 1:].sum(axis=1) / (lam.shape[1] - 1)
    c1 = np.linalg.eigvalsh(lam_mean)[:, 0]
    mask = times >= times[-1] - window
    tw = times[mask]
    c2 = c3 = 0.0
    if tw.size >= 2:
        c2 = np.linalg.eigvalsh(np.trapezoid(lam_mean[mask], tw, axis=0))[0]
        c3 = np.linalg.eigvalsh(np.trapezoid(lam[mask, 0], tw, axis=0))[0]
    return c1, all(c < WEAK_EXCITATION_TOL for c in (c1[-1], c2, c3))
