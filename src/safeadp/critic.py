"""Online learner: Bellman-error evaluation, extrapolation-point sampling,
normalized-gradient critic update, gain-matrix dynamics, projected actor
update, and excitation monitoring."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cost import H_MIN, BarrierSpec, CostSpec, grad_Bbar, instantaneous_cost
from .staf import StaFConfig, grad_sigma, policy_hat

PROJ_LAYER = 0.05  # boundary-layer fraction of the actor projection


@dataclass
class LearnerGains:
    kc1: float
    kc2: float
    ka1: float
    nu: float
    beta: float
    N: int
    gamma0: float
    wa_bound: float
    seed: int
    pe_window: float

    def __post_init__(self):
        for name in ("nu", "gamma0", "wa_bound", "pe_window"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("kc1", "kc2", "ka1", "beta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.N < 1:
            raise ValueError("N must be at least 1")


@dataclass
class BellmanSample:
    """Bellman error and its normalized regressor at one evaluation point."""

    y: np.ndarray
    u: np.ndarray
    omega: np.ndarray
    omega_B: float
    rho: float
    delta: float
    Lambda: np.ndarray = field(repr=False)


def bellman_at(y, x, Wc, Wa, sys, cost: CostSpec, bar: BarrierSpec,
               cfg: StaFConfig, gains: LearnerGains):
    """Evaluate the Bellman error at y with kernels anchored at x.

    With y = x this is the on-trajectory error; otherwise it is an
    extrapolated sample. Raises BoundaryViolation outside the interior.
    """
    y = np.asarray(y, float)
    u = policy_hat(cfg, bar, cost, sys, Wa, y, x)
    ydot = np.asarray(sys.drift(y), float) + np.asarray(sys.input_map(y), float) @ u
    omega = grad_sigma(cfg, y, x) @ ydot
    omega_B = float(grad_Bbar(bar, y) @ ydot)
    r = instantaneous_cost(cost, bar, y, u)
    delta = float(np.asarray(Wc, float) @ omega) + r + omega_B
    rho = 1.0 + gains.nu * float(omega @ omega)
    Lam = np.outer(omega, omega) / (rho * rho)
    return BellmanSample(y=y, u=u, omega=omega, omega_B=omega_B,
                         rho=rho, delta=delta, Lambda=Lam)


def sample_extrapolation_points(rng, x, N, cfg: StaFConfig, safeset, h_min=H_MIN):
    """N points uniform on the 0.1 theta(x) square centered at x.

    Points landing outside the interior of the safe set are resampled up
    to 16 times, then collapse to x.
    """
    x = np.asarray(x, float)
    half = 0.05 * cfg.theta(x)
    pts = []
    for _ in range(N):
        for _attempt in range(16):
            p = x + rng.uniform(-half, half, size=x.shape)
            if safeset.h(p) > h_min:
                break
        else:
            p = x.copy()
        pts.append(p)
    return pts


def critic_rhs(gains: LearnerGains, Gamma, on: BellmanSample, extraps):
    """Normalized-gradient critic update direction."""
    acc = gains.kc1 * on.omega * on.delta / (on.rho * on.rho)
    if extraps:
        scale = gains.kc2 / gains.N
        for s in extraps:
            acc = acc + scale * s.omega * s.delta / (s.rho * s.rho)
    return -np.asarray(Gamma, float) @ acc


def regressor_sum(gains: LearnerGains, on: BellmanSample, extraps):
    """kc1 Lambda + (kc2/N) sum_k Lambda_k, the curvature of the update."""
    S = gains.kc1 * on.Lambda
    if extraps:
        scale = gains.kc2 / gains.N
        for s in extraps:
            S = S + scale * s.Lambda
    return S


def gamma_rhs(gains: LearnerGains, Gamma, on: BellmanSample, extraps):
    """Gain-matrix dynamics: forgetting growth minus regressor contraction."""
    Gamma = np.asarray(Gamma, float)
    S = regressor_sum(gains, on, extraps)
    M = gains.beta * Gamma - Gamma @ S @ Gamma
    return 0.5 * (M + M.T)


def actor_rhs(gains: LearnerGains, Wa, Wc):
    """Projected actor update: tracks the critic, radially scaled inside a
    smooth boundary layer so that ||Wa|| stays within
    wa_bound * sqrt(1 + PROJ_LAYER)."""
    Wa = np.asarray(Wa, float)
    mu = -gains.ka1 * (Wa - np.asarray(Wc, float))
    nw2 = float(Wa @ Wa)
    wb2 = gains.wa_bound ** 2
    outward = float(Wa @ mu)
    if nw2 <= wb2 * (1.0 - PROJ_LAYER) or outward <= 0.0:
        return mu
    theta = min(1.0, (nw2 - wb2 * (1.0 - PROJ_LAYER)) / (wb2 * PROJ_LAYER))
    return mu - theta * (outward / nw2) * Wa


def excitation_metrics(times, mean_Lambda_hist, Lambda_hist, window):
    """Empirical excitation surrogates.

    c1_now: min eigenvalue of the latest mean extrapolated regressor.
    c2_window / c3_window: min eigenvalues of the trapezoid-rule time
    integrals of the mean extrapolated regressor and the on-trajectory
    regressor over the trailing window.
    """
    times = np.asarray(times, float)
    if times.size == 0:
        raise ValueError("history is empty")
    mean_Lambda_hist = np.asarray(mean_Lambda_hist, float)
    Lambda_hist = np.asarray(Lambda_hist, float)
    c1 = float(np.linalg.eigvalsh(mean_Lambda_hist[-1])[0])
    t_end = times[-1]
    mask = times >= t_end - window
    tw = times[mask]
    if tw.size < 2:
        c2 = 0.0
        c3 = 0.0
    else:
        I2 = np.trapezoid(mean_Lambda_hist[mask], tw, axis=0)
        I3 = np.trapezoid(Lambda_hist[mask], tw, axis=0)
        c2 = float(np.linalg.eigvalsh(I2)[0])
        c3 = float(np.linalg.eigvalsh(I3)[0])
    return {"c1_now": c1, "c2_window": c2, "c3_window": c3}


def weak_excitation(metrics, tol=1e-8):
    return all(v < tol for v in metrics.values())
