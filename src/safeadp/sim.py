"""Episode runners: coupled plant + learner integration for the ADP
controller, zero-order-hold stepping for the QP baseline, trajectory
records, summaries, and invariance diagnostics."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cost import H_MIN, barrier_B
from .critic import (actor_rhs, bellman_at, critic_rhs, excitation_metrics,
                     gamma_rhs, sample_extrapolation_points, weak_excitation)
from .errors import BoundaryViolation, QpInfeasible
from .integrate import StepRecord, integrate_adaptive
from .model import cbf_margin
from .qpsolve import qp_controller
from .staf import policy_hat, value_hat


@dataclass
class SimConfig:
    t_final: float
    x0: np.ndarray
    abs_tol: float
    rel_tol: float
    dt_out: float
    controller: str

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.t_final <= 0 or self.abs_tol <= 0 or self.rel_tol <= 0 or self.dt_out <= 0:
            raise ValueError("t_final, tolerances, and dt_out must be positive")
        if self.controller not in ("adp", "qp"):
            raise ValueError("controller must be 'adp' or 'qp'")


@dataclass
class TrajectoryRecord:
    """Output rows sampled at dt_out plus run-level metadata."""

    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    h: np.ndarray
    B: np.ndarray
    Vhat: np.ndarray
    delta: np.ndarray
    Wc: np.ndarray
    Wa: np.ndarray
    min_eig_gamma: np.ndarray
    c1: np.ndarray
    J: np.ndarray
    status: str
    controller: str
    j_native_total: float = np.nan
    weak_excitation_flag: bool = False
    infeasible_events: int = 0
    wall_clock: float = 0.0
    gamma_eig_min: float = np.nan
    gamma_eig_max: float = np.nan


@dataclass
class SummaryReport:
    min_h: float
    terminal_x_norm: float
    max_u_inf: float
    total_J: float
    mean_abs_delta_early: float
    mean_abs_delta_late: float
    infeasible_events: int
    weak_excitation_flag: bool
    wall_clock: float
    status: str
    controller: str
    j_native_total: float = np.nan

    def as_dict(self):
        return {
            "controller": self.controller,
            "status": self.status,
            "min_h": self.min_h,
            "terminal_x_norm": self.terminal_x_norm,
            "max_u_inf": self.max_u_inf,
            "total_J": self.total_J,
            "j_native_total": self.j_native_total,
            "mean_abs_delta_early": self.mean_abs_delta_early,
            "mean_abs_delta_late": self.mean_abs_delta_late,
            "infeasible_events": self.infeasible_events,
            "weak_excitation": self.weak_excitation_flag,
            "wall_clock_s": self.wall_clock,
        }


def summarize(record: TrajectoryRecord, window=5.0):
    """Recompute the summary from the recorded rows."""
    t = record.t
    early = t <= t[0] + window
    late = t >= t[-1] - window
    def _nanmean(vals):
        vals = vals[np.isfinite(vals)]
        return float(np.mean(vals)) if vals.size else np.nan

    d_early = _nanmean(np.abs(record.delta[early]))
    d_late = _nanmean(np.abs(record.delta[late]))
    return SummaryReport(
        min_h=float(np.min(record.h)),
        terminal_x_norm=float(np.linalg.norm(record.x[-1])),
        max_u_inf=float(np.max(np.abs(record.u))),
        total_J=float(record.J[-1]),
        mean_abs_delta_early=d_early,
        mean_abs_delta_late=d_late,
        infeasible_events=record.infeasible_events,
        weak_excitation_flag=record.weak_excitation_flag,
        wall_clock=record.wall_clock,
        status=record.status,
        controller=record.controller,
        j_native_total=record.j_native_total,
    )


def check_start(safeset, x0):
    """Reject a start x0 outside the interior of the safe set."""
    if safeset.h(x0) <= H_MIN:
        raise ValueError("x0 must lie in the interior of the safe set")


def _output_grid(t_final, dt_out, t_reached):
    grid = np.arange(0.0, t_final + 0.5 * dt_out, dt_out)
    return grid[grid <= t_reached + 1e-9]


def _held(times, values, grid, empty):
    """Zero-order hold: at each grid time the value recorded at the last
    time at or before it (within 1e-12), the first value before any, and
    `empty` on every row when nothing was recorded."""
    if not times:
        return np.array([empty] * len(grid))
    j = np.searchsorted(np.asarray(times), grid + 1e-12, side="right") - 1
    return np.asarray(values)[np.maximum(j, 0)]


def _barrier_columns(safeset, bar, xs):
    """h and B per row, with B = inf where h <= H_MIN."""
    hs = np.array([safeset.h(x) for x in xs])
    Bs = np.array([np.inf if h <= H_MIN else barrier_B(bar, x) for h, x in zip(hs, xs)])
    return hs, Bs


# ---------------------------------------------------------------------------
# ADP episode
# ---------------------------------------------------------------------------

class _AdpPack:
    """Index bookkeeping for the augmented state vector
    [x, Wc, Wa, Gamma.flat, J_native, J_quad]."""

    def __init__(self, n, L):
        self.n = n
        self.L = L
        self.i_wc = n
        self.i_wa = n + L
        self.i_g = n + 2 * L
        self.i_jn = n + 2 * L + L * L
        self.size = self.i_jn + 2

    def unpack(self, s):
        L = self.L
        return (s[: self.n], s[self.i_wc: self.i_wa], s[self.i_wa: self.i_g],
                s[self.i_g: self.i_jn].reshape(L, L), s[self.i_jn], s[self.i_jn + 1])


def run_adp_episode(scn):
    """Integrate the coupled plant + learner dynamics for the ADP controller."""
    t_start = time.perf_counter()
    sys_, safeset, cost, bar = scn.system, scn.safeset, scn.cost, scn.barrier
    cfg, gains, sim = scn.staf, scn.gains, scn.sim
    n, L = sys_.n, cfg.L
    pack = _AdpPack(n, L)
    rng = np.random.default_rng(gains.seed)

    s0 = np.zeros(pack.size)
    s0[:n] = sim.x0
    s0[pack.i_wc: pack.i_wa] = rng.uniform(0.0, 4.0, L)
    s0[pack.i_wa: pack.i_g] = rng.uniform(0.0, 4.0, L)
    s0[pack.i_g: pack.i_jn] = (gains.gamma0 * np.eye(L)).ravel()
    check_start(safeset, sim.x0)

    cell = {"pts": sample_extrapolation_points(rng, sim.x0, gains.N, cfg, safeset)}
    hist_t, hist_lam, hist_lam_mean, hist_c1 = [], [], [], []
    gamma_eigs = []

    def rhs(t, s):
        x, Wc, Wa, Gamma, _, _ = pack.unpack(s)
        on = bellman_at(x, x, Wc, Wa, sys_, cost, bar, cfg, gains)
        extraps = [bellman_at(p, x, Wc, Wa, sys_, cost, bar, cfg, gains)
                   for p in cell["pts"]]
        ds = np.empty(pack.size)
        ds[:n] = np.asarray(sys_.drift(x), float) + np.asarray(sys_.input_map(x), float) @ on.u
        ds[pack.i_wc: pack.i_wa] = critic_rhs(gains, Gamma, on, extraps)
        ds[pack.i_wa: pack.i_g] = actor_rhs(gains, Wa, Wc)
        ds[pack.i_g: pack.i_jn] = gamma_rhs(gains, Gamma, on, extraps).ravel()
        r_native = on.delta - float(Wc @ on.omega) - on.omega_B
        ds[pack.i_jn] = r_native
        ds[pack.i_jn + 1] = cost.state_cost(x) + cost.quadratic_input_cost(on.u)
        return ds

    def unsafe(s):
        return safeset.h(s[:n]) <= H_MIN

    def on_accept(t, s):
        s = np.array(s)
        x, Wc, Wa, Gamma, _, _ = pack.unpack(s)
        G = 0.5 * (Gamma + Gamma.T)
        s[pack.i_g: pack.i_jn] = G.ravel()
        eigs = np.linalg.eigvalsh(G)
        if eigs[0] <= 0:
            raise RuntimeError(f"gain matrix lost positive definiteness at t={t:g}")
        gamma_eigs.append((eigs[0], eigs[-1]))
        cell["pts"] = sample_extrapolation_points(rng, x, gains.N, cfg, safeset)
        on = bellman_at(x, x, Wc, Wa, sys_, cost, bar, cfg, gains)
        extraps = [bellman_at(p, x, Wc, Wa, sys_, cost, bar, cfg, gains)
                   for p in cell["pts"]]
        lam_mean = sum(e.Lambda for e in extraps) / gains.N
        hist_t.append(t)
        hist_lam.append(on.Lambda)
        hist_lam_mean.append(lam_mean)
        hist_c1.append(float(np.linalg.eigvalsh(lam_mean)[0]))
        return s

    status, rec = integrate_adaptive(rhs, 0.0, s0, sim.t_final,
                                     abs_tol=sim.abs_tol, rel_tol=sim.rel_tol,
                                     unsafe=unsafe, on_accept=on_accept)

    grid = _output_grid(sim.t_final, sim.dt_out, rec.ts[-1])
    states = rec.sample(grid)
    R = len(grid)
    # copies, so that a kept record does not hold every sampled column
    xs = states[:, :n].copy()
    Wcs = states[:, pack.i_wc: pack.i_wa].copy()
    Was = states[:, pack.i_wa: pack.i_g].copy()
    hs, Bs = _barrier_columns(safeset, bar, xs)
    out = {k: np.empty(R) for k in ("Vhat", "delta", "mineig")}
    us = np.empty((R, sys_.m))
    for i, s in enumerate(states):
        x, Wc, Wa, Gamma, _, _ = pack.unpack(s)
        out["Vhat"][i] = value_hat(cfg, bar, Wc, x, x)
        try:
            on = bellman_at(x, x, Wc, Wa, sys_, cost, bar, cfg, gains)
            us[i] = on.u
            out["delta"][i] = on.delta
        except BoundaryViolation:
            us[i] = policy_hat(cfg, bar, cost, sys_, Wa, x, x)
            out["delta"][i] = np.nan
        out["mineig"][i] = np.linalg.eigvalsh(0.5 * (Gamma + Gamma.T))[0]

    flag = False
    if hist_t:
        metrics = excitation_metrics(hist_t, hist_lam_mean, hist_lam, gains.pe_window)
        flag = weak_excitation(metrics)
    ge = np.asarray(gamma_eigs) if gamma_eigs else np.full((1, 2), np.nan)
    return TrajectoryRecord(
        t=grid, x=xs, u=us, h=hs, B=Bs, Vhat=out["Vhat"],
        delta=out["delta"], Wc=Wcs, Wa=Was, min_eig_gamma=out["mineig"],
        c1=_held(hist_t, hist_c1, grid, 0.0), J=states[:, pack.i_jn + 1].copy(),
        status=status, controller="adp",
        j_native_total=float(states[-1][pack.i_jn]), weak_excitation_flag=flag,
        gamma_eig_min=float(np.min(ge[:, 0])), gamma_eig_max=float(np.max(ge[:, 1])),
        wall_clock=time.perf_counter() - t_start,
    )


# ---------------------------------------------------------------------------
# QP episode
# ---------------------------------------------------------------------------

def run_qp_episode(scn):
    """Sampled-data CLF-CBF QP baseline: solve the QP, hold the input over
    each sampling interval, integrate the plant in between."""
    t_start = time.perf_counter()
    sys_, safeset, cost, bar = scn.system, scn.safeset, scn.cost, scn.barrier
    sim, qp = scn.sim, scn.qp
    n = sys_.n
    check_start(safeset, sim.x0)

    status = "OK"
    infeasible_events = 0
    y = np.append(sim.x0, 0.0)  # [x, J]
    steps = StepRecord()
    hold_ts, hold_us = [], []
    n_holds = int(round(sim.t_final / qp.dt))
    t = 0.0
    for k in range(n_holds):
        try:
            u, _sol = qp_controller(sys_, safeset, cost.Q, cost, qp, y[:n])
        except QpInfeasible:
            status = "QP_INFEASIBLE"
            infeasible_events += 1
            break
        hold_ts.append(t)
        hold_us.append(u)
        t_end = min((k + 1) * qp.dt, sim.t_final)

        def rhs(_t, s):
            ds = np.empty(n + 1)
            ds[:n] = np.asarray(sys_.drift(s[:n]), float) + \
                np.asarray(sys_.input_map(s[:n]), float) @ u
            ds[n] = cost.state_cost(s[:n]) + cost.quadratic_input_cost(u)
            return ds

        st, rec = integrate_adaptive(rhs, t, y, t_end,
                                     abs_tol=sim.abs_tol, rel_tol=sim.rel_tol,
                                     first_step=qp.dt)
        steps.extend(rec)
        y = rec.ys[-1]
        t = t_end  # snap to the hold grid to avoid drift accumulation
        if st != "OK":
            status = "STEP_UNDERFLOW"
            break
        # strict h < 0: the collinear stall legitimately grazes h ~ 5e-12 < H_MIN
        if any(safeset.h(yi[:n]) < 0.0 for yi in rec.ys[1:]):
            status = "SAFETY_BREACH"
            break
    if not steps.ts:  # infeasible at the first solve
        steps.append(0.0, y, np.zeros(n + 1))

    grid = _output_grid(sim.t_final, sim.dt_out, t)
    states = steps.sample(grid)
    R = len(grid)
    xs = states[:, :n]
    hs, Bs = _barrier_columns(safeset, bar, xs)
    nanL = np.full((R, scn.staf.L), np.nan)
    nanv = np.full(R, np.nan)
    return TrajectoryRecord(
        t=grid, x=xs, u=_held(hold_ts, hold_us, grid, np.zeros(sys_.m)), h=hs, B=Bs,
        Vhat=nanv.copy(), delta=nanv.copy(), Wc=nanL.copy(), Wa=nanL.copy(),
        min_eig_gamma=nanv.copy(), c1=nanv.copy(), J=states[:, n], status=status,
        controller="qp", infeasible_events=infeasible_events,
        wall_clock=time.perf_counter() - t_start,
    )


def run_episode(scn):
    if scn.sim.controller == "adp":
        return run_adp_episode(scn)
    return run_qp_episode(scn)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def prop1_diagnostics(record: TrajectoryRecord, scn):
    """Per-row invariance diagnostics: h, B, CBF margin at the applied
    input (with the scenario's qp.alpha_scale), and a value-decrease flag;
    plus the row-wise minima."""
    margins = np.array([cbf_margin(scn.system, scn.safeset, scn.qp.alpha_scale, x, u)
                        for x, u in zip(record.x, record.u)])
    vhat_decreasing = np.ones(len(record.t), dtype=bool)
    if np.all(np.isfinite(record.Vhat)):
        vhat_decreasing[1:] = np.diff(record.Vhat) <= 1e-9
    return {
        "h": record.h,
        "B": record.B,
        "cbf_margin": margins,
        "vhat_decreasing": vhat_decreasing,
        "min_h": float(np.min(record.h)),
        "min_B": float(np.min(record.B)),
        "min_cbf_margin": float(np.min(margins)),
    }
