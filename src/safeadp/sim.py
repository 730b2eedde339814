"""Episode runners: coupled plant + learner integration for the ADP
controller, zero-order holds on a fixed grid for the QP baseline, trajectory
records, and the summary computed from a record's rows."""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .cost import H_MIN, barrier_B
from .critic import (GAMMA0, PE_WINDOW, actor_rhs, bellman_at, critic_rhs, excitation_metrics,
                     gamma_rhs, sample_extrapolation_points, weak_excitation)
from .errors import QpInfeasible, QpSolverFailed, RunEnded
from .integrate import _edge, integrate_adaptive
from .qpsolve import ControllerQp, qp_controller
from .staf import policy_hat, value_hat

SUMMARY_WINDOW = 5.0  # s: the early and late spans of the summary's mean |delta|


@dataclass
class SimConfig:
    t_final: float
    x0: np.ndarray
    tol: float
    dt_out: float
    controller: str

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.t_final <= 0 or self.tol <= 0 or self.dt_out <= 0:
            raise ValueError("t_final, tol, and dt_out must be positive")
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
    accepted_steps: int = 0  # steps the integrator accepted: its record's times after the first
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

    return SummaryReport(
        controller=record.controller,
        status=record.status,
        min_h=float(np.min(record.h)),
        terminal_x_norm=float(np.linalg.norm(record.x[-1])),
        max_u_inf=float(np.max(np.abs(record.u))),
        total_J=float(record.J[-1]),
        j_native_total=record.j_native_total,
        mean_abs_delta_early=_nanmean(np.abs(record.delta[early])),
        mean_abs_delta_late=_nanmean(np.abs(record.delta[late])),
        weak_excitation=record.weak_excitation_flag,
        wall_clock_s=record.wall_clock,
    )


def check_start(safeset, x0):
    """Reject a start x0 outside the interior of the safe set, or so far
    from the obstacle that its h overflows."""
    with np.errstate(over="ignore"):  # an h that overflows is refused below
        h0 = safeset.h(x0)
    if not H_MIN < h0 < np.inf:
        raise ValueError(f"x0 must lie in the interior of the safe set at a finite h (h = {h0:g})")


def _output_grid(dt, t_end):
    """The multiples of dt up to t_end, each within the landing tolerance
    at its own time, and t_end as the last row when it lies past the last
    multiple by more than the tolerance at t_end. The rows of a record are
    this grid at sim.dt_out up to the time the integration reached."""
    grid = np.arange(0.0, t_end + 0.5 * dt, dt)
    grid = grid[grid - t_end <= _edge(grid)]
    return grid if t_end - grid[-1] <= _edge(t_end) else np.append(grid, t_end)


def _held(times, values, grid, empty):
    """Zero-order hold: at each grid time the value recorded at the last
    time at or before it, within the landing tolerance at the grid time,
    the first value before any, and `empty` on every row when nothing was
    recorded."""
    j = np.searchsorted(np.asarray(times), grid + _edge(grid), side="right") - 1
    return np.asarray(list(values) or [empty])[np.maximum(j, 0)]


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


def _record(scn, status, rec, t_start, columns):
    """The output rows both runners share: the multiples of dt_out up to the
    time the integration reached, the sampled state, h, B and J (the
    state's last entry). A run whose rows reach h < 0 ends SAFETY_BREACH at
    the first such row, and its rows end there. columns(grid, states, xs,
    hs) gives the runner's own fields on those rows."""
    sim, n = scn.sim, scn.system.n
    grid = _output_grid(sim.dt_out, rec.ts[-1])
    states = rec.sample(grid)
    hs, Bs = _barrier_columns(scn.safeset, scn.barrier, states[:, :n])
    breach = np.flatnonzero(hs < 0.0)
    if breach.size:
        k = breach[0] + 1
        status, grid, states, hs, Bs = "SAFETY_BREACH", grid[:k], states[:k], hs[:k], Bs[:k]
    xs = states[:, :n].copy()
    return TrajectoryRecord(t=grid, x=xs, h=hs, B=Bs, J=states[:, -1].copy(), status=status,
                            **columns(grid, states, xs, hs), **rec.work(),
                            wall_clock=time.perf_counter() - t_start)


# ---------------------------------------------------------------------------
# ADP episode
# ---------------------------------------------------------------------------

def _adp_pack(x, Wc, Wa, Gamma, j_native, j_quad):
    """The ADP augmented state [x, Wc, Wa, Gamma (row-major), J_native, J_quad],
    or its derivative."""
    return np.concatenate((x, Wc, Wa, np.ravel(Gamma), (j_native, j_quad)))


def _adp_unpack(s, n, L):
    """Views of x, Wc, Wa, Gamma (L x L), J_native and J_quad in packed
    states s (..., size), with any leading row axes."""
    g = n + 2 * L
    return (s[..., :n], s[..., n:n + L], s[..., n + L:g],
            s[..., g:-2].reshape(s.shape[:-1] + (L, L)), s[..., -2], s[..., -1])


def run_adp_episode(scn):
    """Integrate the coupled plant + learner dynamics for the ADP controller.
    The augmented state is [x, Wc, Wa, Gamma (row-major), J_native, J]: x
    first and J last, where the row builder reads them for both runners."""
    t_start = time.perf_counter()
    sys_, safeset, cost, bar = scn.system, scn.safeset, scn.cost, scn.barrier
    cfg, gains, sim = scn.staf, scn.gains, scn.sim
    n, L = sys_.n, cfg.L
    rng = np.random.default_rng(gains.seed)
    # Wc(0) is drawn before Wa(0): that order decides every trajectory
    s0 = _adp_pack(sim.x0, rng.uniform(0.0, 4.0, L), rng.uniform(0.0, 4.0, L),
                   GAMMA0 * np.eye(L), 0.0, 0.0)
    check_start(safeset, sim.x0)

    # each redraw's time and points, which the rhs reads the last of, and
    # the Lambda of the rhs evaluation right after each redraw
    redraw_ts, drawn, lams = [], [], []

    def rhs(t, s):
        x, Wc, Wa, Gamma, _, _ = _adp_unpack(s, n, L)
        # rows [x, p_1..p_N]; row 0 is the on-trajectory sample: its ydot
        # and state cost are the plant's at (x, u)
        rows = bellman_at(np.concatenate((x[None], drawn[-1])), x[None], Wc[None], Wa[None],
                          sys_, cost, bar, cfg, gains)
        if len(lams) < len(drawn):
            lams.append(rows.Lambda)
        r_native = rows.delta[0] - float(Wc @ rows.omega[0]) - rows.omega_B[0]
        return _adp_pack(rows.ydot[0], critic_rhs(gains, Gamma, rows), actor_rhs(gains, Wa, Wc),
                         gamma_rhs(gains, Gamma, rows), r_native,
                         rows.state_cost[0] + cost.quadratic_input_cost(rows.u[0]))

    def on_accept(t, s):
        # gamma_rhs keeps Gamma exactly symmetric, so it is read as it is
        x, _, _, Gamma, _, _ = _adp_unpack(s, n, L)
        if np.linalg.eigvalsh(Gamma)[0] <= 0:
            raise RunEnded("GAIN_INDEFINITE")
        redraw_ts.append(t)
        drawn.append(sample_extrapolation_points(rng, x, gains.N, cfg, safeset))
        return True  # the rhs reads the new points from here on

    status, rec = integrate_adaptive(rhs, 0.0, s0, sim.t_final, tol=sim.tol, on_accept=on_accept)

    # the excitation history: each redraw after the start's, at its own
    # time, read from the rhs evaluation right after it (a hook that ends
    # the run draws none)
    hist_t, hist_c1, flag = redraw_ts[1:len(lams)], [], False
    if hist_t:
        lam = np.array(lams[1:])
        lam_mean = lam[:, 1:].sum(axis=1) / gains.N
        hist_c1 = np.linalg.eigvalsh(lam_mean)[:, 0]
        flag = weak_excitation(excitation_metrics(hist_t, lam_mean, lam[:, 0], PE_WINDOW))

    def columns(grid, states, xs, hs):
        _, Wcs, Was, Gammas, Jns, _ = _adp_unpack(states, n, L)
        us, deltas = _learner_columns(scn, xs, Wcs, Was, hs)
        # copies, so that a kept record does not hold every sampled column
        return dict(u=us, Vhat=value_hat(cfg, bar, Wcs, xs, xs), delta=deltas, Wc=Wcs.copy(),
                    Wa=Was.copy(), min_eig_gamma=np.linalg.eigvalsh(Gammas).min(axis=1),
                    c1=_held(hist_t, hist_c1, grid, 0.0), controller="adp",
                    j_native_total=float(Jns[-1]), weak_excitation_flag=flag)

    return _record(scn, status, rec, t_start, columns)


# ---------------------------------------------------------------------------
# QP episode
# ---------------------------------------------------------------------------

def run_qp_episode(scn):
    """Sampled-data CLF-CBF QP baseline: the QP is solved at each hold time
    k*qp.dt below t_final, 0 always among them, and its input held until
    the next (the last hold ends at t_final), in one integration that lands
    on every hold time."""
    t_start = time.perf_counter()
    sys_, safeset, cost = scn.system, scn.safeset, scn.cost
    sim, qp = scn.sim, scn.qp
    n = sys_.n
    check_start(safeset, sim.x0)

    # the row rule at qp.dt up to t_final less its last point, the end: 0
    # and the multiples of qp.dt more than the landing tolerance below
    # t_final, as floats, since on_accept compares each with t; and 0 alone
    # when t_final is within the tolerance of it, so the start always holds
    hold_ts = _output_grid(qp.dt, sim.t_final)[:-1].tolist() or [0.0]
    hold_us = []  # the input held from each solved hold time
    # what rhs reads: the held input and its input cost; and the last
    # solve's active set (each solve is warm-started from it) and the
    # solver's work so far
    u_held, input_cost = None, 0.0
    active, iterations, cold = (), 0, 0
    ctrl = ControllerQp(sys_, safeset, cost, qp)  # the rows no state changes

    def rhs(_t, s):
        x = s[:n]
        ds = np.empty(n + 1)
        ds[:n] = sys_.xdot(x, u_held)
        ds[n] = cost.state_cost(x) + input_cost
        return ds

    def on_accept(t, s):
        nonlocal u_held, input_cost, active, iterations, cold
        # strict h < 0: the collinear stall legitimately grazes h ~ 5e-12 < H_MIN
        if safeset.h(s[:n]) < 0.0:
            raise RunEnded("SAFETY_BREACH")
        if len(hold_us) < len(hold_ts) and t == hold_ts[len(hold_us)]:
            try:
                u, sol = qp_controller(ctrl, s[:n], active)
            except QpInfeasible:
                raise RunEnded("QP_INFEASIBLE") from None
            except QpSolverFailed:
                raise RunEnded("QP_SOLVER_FAILED") from None
            hold_us.append(u)
            u_held, input_cost = u, cost.quadratic_input_cost(u)
            active = sol.active_set
            iterations += sol.iterations
            cold += sol.iterations > 0
            return True  # the rhs holds the new input from here on

    status, rec = integrate_adaptive(rhs, 0.0, np.append(sim.x0, 0.0), sim.t_final,  # [x, J]
                                     stops=hold_ts, tol=sim.tol, on_accept=on_accept,
                                     first_step=qp.dt)

    def columns(grid, states, xs, hs):
        nanL = np.full((len(grid), scn.staf.L), np.nan)
        nanv = np.full(len(grid), np.nan)
        return dict(u=_held(hold_ts[:len(hold_us)], hold_us, grid, np.zeros(sys_.m)),
                    Vhat=nanv.copy(), delta=nanv.copy(), Wc=nanL.copy(), Wa=nanL.copy(),
                    min_eig_gamma=nanv.copy(), c1=nanv.copy(), controller="qp",
                    qp_iterations=iterations, qp_cold_solves=cold)

    return _record(scn, status, rec, t_start, columns)


def run_episode(scn):
    if scn.sim.controller == "adp":
        return run_adp_episode(scn)
    return run_qp_episode(scn)
