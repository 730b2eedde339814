"""Episode runners: coupled plant + learner integration for the ADP
controller, zero-order holds on a fixed grid for the QP baseline, trajectory
records, and the summary computed from a record's rows."""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .cost import H_MIN, barrier_B
from .critic import (actor_rhs, bellman_at, critic_rhs, excitation_metrics,
                     gamma_rhs, sample_extrapolation_points, weak_excitation)
from .errors import QpInfeasible, QpSolverFailed, RunEnded
from .integrate import StepRecord, integrate_adaptive
from .qpsolve import ControllerQp, qp_controller
from .staf import policy_hat, value_hat

SUMMARY_WINDOW = 5.0  # s: the early and late spans of the summary's mean |delta|


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
    wall_clock: float = 0.0
    qp_iterations: int = 0  # passes of the QP solver's dual loop, summed over holds
    qp_cold_solves: int = 0  # holds whose QP the warm start did not settle
    rhs_evals: int = 0  # the integrator's right-hand-side evaluations
    accepted_steps: int = 0  # distinct times the integrator stepped to
    rejected_steps: int = 0  # step attempts it threw away


@dataclass
class SummaryReport:
    """The run's summary; its field names are the summary JSON's keys."""

    controller: str
    status: str
    min_h: float
    terminal_x_norm: float
    max_u_inf: float
    total_J: float
    j_native_total: float
    mean_abs_delta_early: float
    mean_abs_delta_late: float
    infeasible_events: int
    weak_excitation: bool
    wall_clock_s: float

    def as_dict(self):
        return asdict(self)


def summarize(record: TrajectoryRecord):
    """Recompute the summary from the recorded rows."""
    t = record.t
    early = t <= t[0] + SUMMARY_WINDOW
    late = t >= t[-1] - SUMMARY_WINDOW
    def _nanmean(vals):
        vals = vals[np.isfinite(vals)]
        return float(np.mean(vals)) if vals.size else np.nan

    d_early = _nanmean(np.abs(record.delta[early]))
    d_late = _nanmean(np.abs(record.delta[late]))
    return SummaryReport(
        controller=record.controller,
        status=record.status,
        min_h=float(np.min(record.h)),
        terminal_x_norm=float(np.linalg.norm(record.x[-1])),
        max_u_inf=float(np.max(np.abs(record.u))),
        total_J=float(record.J[-1]),
        j_native_total=record.j_native_total,
        mean_abs_delta_early=d_early,
        mean_abs_delta_late=d_late,
        infeasible_events=int(record.status == "QP_INFEASIBLE"),
        weak_excitation=record.weak_excitation_flag,
        wall_clock_s=record.wall_clock,
    )


def check_start(safeset, x0):
    """Reject a start x0 outside the interior of the safe set."""
    if safeset.h(x0) <= H_MIN:
        raise ValueError("x0 must lie in the interior of the safe set")


def _output_grid(t_final, dt_out, t_reached):
    """The multiples of dt_out up to the time the integration reached
    (within 1e-9), and that time as the last row when none lands on it."""
    grid = np.arange(0.0, t_final + 0.5 * dt_out, dt_out)
    grid = grid[grid <= t_reached + 1e-9]
    if t_reached > grid[-1] + 1e-9:
        grid = np.append(grid, t_reached)
    return grid


def _held(times, values, grid, empty):
    """Zero-order hold: at each grid time the value recorded at the last
    time at or before it (within 1e-12), the first value before any, and
    `empty` on every row when nothing was recorded."""
    if len(times) == 0:
        return np.array([empty] * len(grid))
    j = np.searchsorted(np.asarray(times), grid + 1e-12, side="right") - 1
    return np.asarray(values)[np.maximum(j, 0)]


def _barrier_columns(safeset, bar, xs):
    """h and B per row, with B = inf where h <= H_MIN."""
    hs = safeset.h(xs)
    ok = hs > H_MIN
    Bs = np.full(hs.shape, np.inf)
    Bs[ok] = barrier_B(bar, xs[ok])
    return hs, Bs


def _learner_columns(scn, xs, Wcs, Was, hs):
    """u and the Bellman error delta per output row, each row anchored at
    itself. Rows at or past the boundary (h <= H_MIN) get u from the policy
    alone and delta = NaN."""
    sys_, cost, bar, cfg = scn.system, scn.cost, scn.barrier, scn.staf
    ok = hs > H_MIN
    on = bellman_at(xs[ok], xs[ok], Wcs[ok], Was[ok], sys_, cost, bar, cfg, scn.gains)
    us = np.empty((len(hs), sys_.m))
    us[ok] = on.u
    us[~ok] = policy_hat(cfg, bar, cost, sys_, Was[~ok], xs[~ok], xs[~ok])
    deltas = np.full(len(hs), np.nan)
    deltas[ok] = on.delta
    return us, deltas


# ---------------------------------------------------------------------------
# ADP episode
# ---------------------------------------------------------------------------

class _AdpPack:
    """Index bookkeeping for the augmented state vector
    [x, Wc, Wa, Gamma.flat, J_native, J_quad], with any leading row axes."""

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
        return (s[..., : self.n], s[..., self.i_wc: self.i_wa], s[..., self.i_wa: self.i_g],
                s[..., self.i_g: self.i_jn].reshape(s.shape[:-1] + (L, L)),
                s[..., self.i_jn], s[..., self.i_jn + 1])


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
    accepted = []  # (t, s, points) after each accepted step's hook

    def learner_rows(x, Wc, Wa, pts):
        # rows [x, p_1..p_N] per anchor x
        return bellman_at(np.concatenate((x[..., None, :], pts), axis=-2), x[..., None, :],
                          Wc[..., None, :], Wa[..., None, :], sys_, cost, bar, cfg, gains)

    def rhs(t, s):
        x, Wc, Wa, Gamma, _, _ = pack.unpack(s)
        rows = learner_rows(x, Wc, Wa, cell["pts"])
        # row 0 is the on-trajectory sample: its ydot and state cost are the
        # plant's at (x, u)
        ds = np.empty(pack.size)
        ds[:n] = rows.ydot[0]
        ds[pack.i_wc: pack.i_wa] = critic_rhs(gains, Gamma, rows)
        ds[pack.i_wa: pack.i_g] = actor_rhs(gains, Wa, Wc)
        ds[pack.i_g: pack.i_jn] = gamma_rhs(gains, Gamma, rows).ravel()
        r_native = rows.delta[0] - float(Wc @ rows.omega[0]) - rows.omega_B[0]
        ds[pack.i_jn] = r_native
        ds[pack.i_jn + 1] = rows.state_cost[0] + cost.quadratic_input_cost(rows.u[0])
        return ds

    def on_accept(t, s):
        s = np.array(s)
        x, _, _, Gamma, _, _ = pack.unpack(s)
        G = 0.5 * (Gamma + Gamma.T)
        s[pack.i_g: pack.i_jn] = G.ravel()
        if np.linalg.eigvalsh(G)[0] <= 0:
            raise RunEnded("GAIN_INDEFINITE")
        cell["pts"] = sample_extrapolation_points(rng, x, gains.N, cfg, safeset)
        accepted.append((t, s, cell["pts"]))
        return s

    status, rec = integrate_adaptive(rhs, 0.0, s0, sim.t_final, abs_tol=sim.abs_tol,
                                     rel_tol=sim.rel_tol, on_accept=on_accept)

    grid = _output_grid(sim.t_final, sim.dt_out, rec.ts[-1])
    # copies, so that neither the post-processing nor a kept record holds
    # every sampled column
    xs, Wcs, Was, Gammas, Jns, Js = (c.copy() for c in pack.unpack(rec.sample(grid)))
    mineig = np.linalg.eigvalsh(0.5 * (Gammas + Gammas.transpose(0, 2, 1))).min(axis=1)
    hs, Bs = _barrier_columns(safeset, bar, xs)
    us, deltas = _learner_columns(scn, xs, Wcs, Was, hs)

    # the excitation history: each accepted state's regressors at the
    # points drawn there, in one evaluation over all accepted steps
    hist_t, hist_c1, flag = [], [], False
    if accepted:
        hist_t, ss, pts = zip(*accepted)
        x_a, Wc_a, Wa_a, _, _, _ = pack.unpack(np.array(ss))
        lam = learner_rows(x_a, Wc_a, Wa_a, np.array(pts)).Lambda
        lam_mean = lam[:, 1:].sum(axis=1) / gains.N
        hist_c1 = np.linalg.eigvalsh(lam_mean)[:, 0]
        flag = weak_excitation(excitation_metrics(hist_t, lam_mean, lam[:, 0], gains.pe_window))
    return TrajectoryRecord(
        t=grid, x=xs, u=us, h=hs, B=Bs, Vhat=value_hat(cfg, bar, Wcs, xs, xs),
        delta=deltas, Wc=Wcs, Wa=Was, min_eig_gamma=mineig,
        c1=_held(hist_t, hist_c1, grid, 0.0), J=Js,
        status=status, controller="adp",
        j_native_total=float(Jns[-1]), weak_excitation_flag=flag,
        **rec.work(), wall_clock=time.perf_counter() - t_start,
    )


# ---------------------------------------------------------------------------
# QP episode
# ---------------------------------------------------------------------------

def run_qp_episode(scn):
    """Sampled-data CLF-CBF QP baseline: the QP is solved at each hold time
    k*qp.dt below t_final and its input held until the next (the last hold
    ends at t_final), in one integration that lands on every hold time."""
    t_start = time.perf_counter()
    sys_, safeset, cost, bar = scn.system, scn.safeset, scn.cost, scn.barrier
    sim, qp = scn.sim, scn.qp
    n = sys_.n
    check_start(safeset, sim.x0)

    hold_ts = qp.dt * np.arange(np.ceil(sim.t_final / qp.dt - 1e-9))  # k*qp.dt < t_final - ulps
    hold_us = []  # the input held from each solved hold time; rhs reads the last
    # the last solve's active set (each solve is warm-started from it), the
    # input cost of the held input, and the solver's work so far
    held = {"active": (), "input_cost": 0.0, "iterations": 0, "cold": 0}
    ctrl = ControllerQp(sys_, safeset, cost, qp)  # the rows no state changes
    y0 = np.append(sim.x0, 0.0)  # [x, J]

    def solve(x):
        try:
            u, sol = qp_controller(ctrl, x, held["active"])
        except QpInfeasible:
            raise RunEnded("QP_INFEASIBLE") from None
        except QpSolverFailed:
            raise RunEnded("QP_SOLVER_FAILED") from None
        hold_us.append(u)
        held["active"] = sol.active_set
        held["input_cost"] = cost.quadratic_input_cost(u)
        held["iterations"] += sol.iterations
        held["cold"] += sol.iterations > 0

    def rhs(_t, s):
        x = s[:n]
        ds = np.empty(n + 1)
        ds[:n] = sys_.xdot(x, hold_us[-1])
        ds[n] = cost.state_cost(x) + held["input_cost"]
        return ds

    def on_accept(t, s):
        # strict h < 0: the collinear stall legitimately grazes h ~ 5e-12 < H_MIN
        if safeset.h(s[:n]) < 0.0:
            raise RunEnded("SAFETY_BREACH")
        if len(hold_us) < len(hold_ts) and t == hold_ts[len(hold_us)]:
            solve(s[:n])
            return s  # f is re-evaluated with the new input

    try:
        solve(sim.x0)
    except RunEnded as end:  # the first solve failed
        status, rec = end.args[0], StepRecord()
        rec.append(0.0, y0, np.zeros(n + 1))
    else:
        status, rec = integrate_adaptive(rhs, 0.0, y0, sim.t_final, stops=hold_ts[1:],
                                         abs_tol=sim.abs_tol, rel_tol=sim.rel_tol,
                                         on_accept=on_accept, first_step=qp.dt)

    grid = _output_grid(sim.t_final, sim.dt_out, rec.ts[-1])
    states = rec.sample(grid)
    xs = states[:, :n]
    hs, Bs = _barrier_columns(safeset, bar, xs)
    nanL = np.full((len(grid), scn.staf.L), np.nan)
    nanv = np.full(len(grid), np.nan)
    return TrajectoryRecord(
        t=grid, x=xs, u=_held(hold_ts[:len(hold_us)], hold_us, grid, np.zeros(sys_.m)),
        h=hs, B=Bs, Vhat=nanv.copy(), delta=nanv.copy(), Wc=nanL.copy(), Wa=nanL.copy(),
        min_eig_gamma=nanv.copy(), c1=nanv.copy(), J=states[:, n], status=status,
        controller="qp", qp_iterations=held["iterations"], qp_cold_solves=held["cold"],
        **rec.work(), wall_clock=time.perf_counter() - t_start,
    )


def run_episode(scn):
    if scn.sim.controller == "adp":
        return run_adp_episode(scn)
    return run_qp_episode(scn)
