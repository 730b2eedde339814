"""Relaxed CLF-CBF quadratic program and the dense dual active-set
solver behind it (Goldfarb and Idnani, "A numerically stable dual method
for solving strictly convex quadratic programs", Math. Programming 27,
1983).

Problems are stated as  min v^T H v + c_lin^T v  s.t.  A v <= b  with H
symmetric positive definite, which `QpProblem` checks. The dual method
starts at the unconstrained minimum and needs no feasible start point. A solve may be warm-started
from a guess of the active set (the previous hold's, in the controller):
one equality-constrained solve on that set, in the manner of the online
active set strategy of Ferreau, Bock and Diehl (IJRNC 18, 2008).

`solve_qp` returns only verified optima: the warm hit and the dual
loop's result pass one acceptance rule (`_accepted`). An infeasible
problem raises QpInfeasible, and a loop that does not converge, or ends
on a point that fails the rule, raises QpSolverFailed.

The controller instance has decision variables v = [u; phi] with
H = blkdiag(R, p): the CLF row is relaxed by phi, the CBF and box rows
are hard. Only the CBF and CLF rows depend on the state, so a
`ControllerQp` builds (and checks) H, c_lin and the box rows once, and
`build_qp(ctrl, x)` writes just those two rows at each state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QpInfeasible, QpSolverFailed
from .model import cbf_condition, clf_condition

KKT_TOL = 1e-8
_EPS = float(np.finfo(float).eps)
SOLVE_TOL = 1e-9  # row violation the dual loop and the warm check accept
MAX_ITER = 200  # passes of the dual loop before QpSolverFailed


@dataclass
class QpParams:
    p: float
    dt: float
    alpha_scale: float
    gamma_scale: float

    def __post_init__(self):
        for name in ("p", "dt", "alpha_scale", "gamma_scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class QpProblem:
    """min v^T H v + c_lin^T v  s.t.  A v <= b. H is checked when the
    problem is built: finite, symmetric and positive definite (ValueError
    otherwise). Its symmetric part (H + H^T)/2, which is H itself when H is
    exactly symmetric, is what the problem keeps, so that the factor and
    the residuals read one Hessian."""

    H: np.ndarray
    c_lin: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.H = np.asarray(self.H, float)
        self.c_lin = np.asarray(self.c_lin, float)
        self.A = np.asarray(self.A, float)
        self.b = np.asarray(self.b, float)
        if not (np.isfinite(self.H).all() and np.allclose(self.H, self.H.T, atol=1e-12)):
            raise ValueError("H must be finite and symmetric")
        self.H = 0.5 * (self.H + self.H.T)
        # 2H, the Hessian of the objective, and -c_lin, the right-hand side
        # of the KKT system, formed once; H and c_lin are not changed after
        self.H2 = 2.0 * self.H
        self.neg_c = -self.c_lin
        # the dual loop works in w = L^T v, with 2H = L L^T, where the
        # Hessian is I; the factor exists only when H is positive definite
        try:
            self.L_T_inv = np.linalg.inv(np.linalg.cholesky(self.H2)).T
        except np.linalg.LinAlgError:
            raise ValueError("H must be positive definite") from None

    @property
    def d(self):
        return self.H.shape[0]

    @property
    def k(self):
        return self.A.shape[0]

    def with_rows(self, A, b):
        """This problem with the constraints A v <= b in place of its own.
        H and c_lin (and 2H, -c_lin and the factor of 2H) are shared with
        this problem and not checked again."""
        prob = object.__new__(QpProblem)
        prob.H, prob.c_lin, prob.A, prob.b = self.H, self.c_lin, A, b
        prob.H2, prob.neg_c, prob.L_T_inv = self.H2, self.neg_c, self.L_T_inv
        return prob

    def objective(self, v):
        v = np.asarray(v, float)
        return float(v @ self.H @ v + self.c_lin @ v)


@dataclass
class QpSolution:
    v_star: np.ndarray
    active_set: tuple
    multipliers: np.ndarray
    iterations: int = 0


_RESIDUALS = ("stationarity", "primal", "dual", "complementarity")


def _residuals(prob: QpProblem, v, lam, slack):
    """The four KKT residuals of `kkt_residuals`, in the order of
    _RESIDUALS, as floats; a NaN in the point shows in each residual it
    enters. The primal and dual residuals are |max(slack, 0)| and
    |min(lam, 0)|, so a zero reads 0.0, not -0.0."""
    if slack is None:
        slack = prob.A @ v - prob.b
    r = prob.H2 @ v + prob.c_lin + prob.A.T @ lam
    return (math.sqrt(r.dot(r)),  # np.linalg.norm(r), without its overhead
            abs(float(slack.max(initial=0.0))),
            abs(float(lam.min(initial=0.0))),
            float(np.abs(lam * slack).max(initial=0.0)))


def kkt_residuals(prob: QpProblem, v, multipliers, slack=None):
    """KKT residuals for  min v^T H v + c^T v  s.t.  A v <= b.

    Stationarity uses 2 H v + c + A^T lam = 0. `slack` is A v - b when the
    caller has it already.
    """
    res = _residuals(prob, np.asarray(v, float), np.asarray(multipliers, float), slack)
    return dict(zip(_RESIDUALS, res))


def rounding_bounds(prob: QpProblem, v, multipliers):
    """What rounding alone may leave in each KKT residual at a point of
    this size: (d + k) eps times the magnitudes the residual is formed
    from, |2H||v| + |c| + |A|^T|lam| for stationarity, |A||v| + |b| per row
    for the slack, |lam| for the sign of the multipliers, and their
    product for complementarity."""
    v = np.abs(np.asarray(v, float))
    lam = np.abs(np.asarray(multipliers, float))
    gamma = (prob.d + prob.k) * _EPS
    absA = np.abs(prob.A)
    row = absA @ v + np.abs(prob.b)
    stat = np.abs(prob.H2) @ v + np.abs(prob.c_lin) + absA.T @ lam
    return {
        "stationarity": gamma * math.sqrt(float(stat.dot(stat))),
        "primal": gamma * float(row.max(initial=0.0)),
        "dual": gamma * float(lam.max(initial=0.0)),
        "complementarity": gamma * float((lam * row).max(initial=0.0)),
    }


def kkt_ok(prob, v, multipliers, slack=None):
    """Whether every KKT residual is within KKT_TOL, or, failing that,
    within the rounding bound of a point of its size (`rounding_bounds`),
    so that a badly scaled problem's optimum, with multipliers near 1e7,
    is not rejected for its rounding.

    The verdict and the `kkt_residuals` report read one computation of
    the residuals (a NaN fails the rule); the rounding bounds are formed
    only when the absolute test fails."""
    v = np.asarray(v, float)
    lam = np.asarray(multipliers, float)
    stat, primal, dual, comp = res = _residuals(prob, v, lam, slack)
    # four comparisons, not all(): a generator per hold costs more than they do
    if stat <= KKT_TOL and primal <= KKT_TOL and dual <= KKT_TOL and comp <= KKT_TOL:
        return True
    bounds = rounding_bounds(prob, v, lam)
    return all(r <= max(KKT_TOL, bounds[name]) for name, r in zip(_RESIDUALS, res))


def _equality_solve(prob: QpProblem, W):
    """The point and multipliers of min v^T H v + c^T v s.t. A_W v = b_W,
    for a sorted list W of at most d independent rows (LinAlgError when
    they are dependent)."""
    d = prob.d
    A_W, b_W = prob.A[W], prob.b[W]
    if len(W) == d:
        # a vertex: v solves A_W v = b_W, and the multipliers then follow
        # from stationarity. This does not keep the active rows exact: it
        # leaves rounding on them in 582 of the 592 vertex solves of the
        # default QP episode (ROADMAP item 12)
        v = np.linalg.solve(A_W, b_W)
        return v, np.linalg.solve(A_W.T, -(prob.H2 @ v + prob.c_lin))
    KKT = np.zeros((d + len(W), d + len(W)))
    KKT[:d, :d] = prob.H2
    KKT[:d, d:] = A_W.T
    KKT[d:, :d] = A_W
    sol = np.linalg.solve(KKT, np.concatenate([prob.neg_c, b_W]))
    return sol[:d], sol[d:]


def _accepted(prob: QpProblem, W, v, lam, iterations):
    """The solution (W, v, lam) if it meets the acceptance rule: every row
    violated by at most SOLVE_TOL, no negative multiplier, and the KKT
    check, given the slack A v - b formed once; otherwise None. (A NaN
    that passes the first two tests fails the KKT check.)"""
    slack = prob.A @ v - prob.b
    if slack.max(initial=-np.inf) > SOLVE_TOL or lam.min(initial=0.0) < 0.0:
        return None
    lam_full = np.zeros(prob.k)
    lam_full[W] = lam
    if not kkt_ok(prob, v, lam_full, slack=slack):
        return None
    return QpSolution(v_star=v, active_set=tuple(W), multipliers=lam_full, iterations=iterations)


def _warm_solve(prob: QpProblem, start):
    """The solution on the rows of `start` taken as equalities, or None
    when they do not give an accepted point (`_accepted`)."""
    W = sorted(start)
    if len(W) > prob.d or len(set(W)) < len(W) or W[0] < 0 or W[-1] >= prob.k:
        return None
    try:
        v, lam = _equality_solve(prob, W)
    except np.linalg.LinAlgError:  # dependent rows
        return None
    return _accepted(prob, W, v, lam, 0)


def solve_qp(prob: QpProblem, start=()):
    """Goldfarb-Idnani dual active-set method (Math. Programming 27, 1983)
    with an optional warm start.

    A non-empty `start` (row indices, for instance the active set of the
    previous, nearby problem) is tried first: one equality-constrained
    solve on sorted(start), kept when it meets the acceptance rule: every
    row violated by at most SOLVE_TOL, every multiplier >= 0 and the KKT
    check passed. Anything else (a stale or invalid start, dependent rows,
    an infeasible problem) runs the dual loop from scratch, as does an
    empty start.

    The dual loop starts at the unconstrained minimum and adds the most
    violated row (smallest index on ties); an active row is dropped when
    its multiplier would turn negative first (a partial step). No finite
    step means the problem is infeasible, and QpInfeasible is raised. Both
    paths return the point that solves the sorted final active set as
    equalities, so the result depends only on the problem and that set,
    and a warm hit equals the cold solve ending on the same set bit for
    bit. `iterations` counts passes of the dual loop (0 on a warm hit).
    QpSolverFailed is raised when the loop's point fails the same rule,
    and when MAX_ITER passes do not converge.
    """
    if len(start):
        warm = _warm_solve(prob, start)
        if warm is not None:
            return warm
    A, b, L_T_inv = prob.A, prob.b, prob.L_T_inv
    Aw = A @ L_T_inv  # the rows in w = L^T v
    v = -L_T_inv @ (L_T_inv.T @ prob.c_lin)
    W: list[int] = []
    lam = np.zeros(0)  # multipliers of the rows in W, in order
    it = 0
    while it < MAX_ITER:
        it += 1
        viol = A @ v - b
        viol[W] = -np.inf
        p = int(np.argmax(viol)) if b.size else -1
        if p < 0 or viol[p] <= SOLVE_TOL:
            break
        a, lam_p = Aw[p], 0.0
        while it < MAX_ITER:
            # z is the part of a orthogonal to the rows of W (exactly 0 when
            # |W| = d): it keeps W active and lowers row p, while the
            # multipliers of W move by -r per unit step
            if W:
                Q, R = np.linalg.qr(Aw[W].T, mode="complete")
                r = np.linalg.solve(R[: len(W)], Q[:, : len(W)].T @ a)
                z = -Q[:, len(W):] @ (Q[:, len(W):].T @ a)
            else:
                r, z = lam, -a
            descent = z @ z  # a row within 1e-12 rad of span(W) counts as dependent
            t_full = (A[p] @ v - b[p]) / descent if descent > 1e-24 * (a @ a) else np.inf
            pos = np.flatnonzero(r > 0.0)
            drop = pos[np.argmin(lam[pos] / r[pos])] if pos.size else -1
            t_part = lam[drop] / r[drop] if pos.size else np.inf
            t = min(t_full, t_part)
            if not np.isfinite(t):
                raise QpInfeasible(f"QP infeasible: no step of the dual loop satisfies row {p}")
            if np.isfinite(t_full):
                v = v + t * (L_T_inv @ z)
            lam = lam - t * r
            lam_p += t
            if t_full <= t_part:
                W.append(p)
                lam = np.append(lam, lam_p)
                break
            del W[drop]
            lam = np.delete(lam, drop)
            it += 1
    else:
        raise QpSolverFailed("active-set solver failed to converge")
    W.sort()
    if W:
        v, lam = _equality_solve(prob, W)
    sol = _accepted(prob, W, v, lam, it)
    if sol is None:
        raise QpSolverFailed("active-set solver produced a point that fails the rule")
    return sol


class ControllerQp:
    """The parts of the relaxed CLF-CBF QP that no state changes, for one
    system, safe set, cost and QpParams.

    Rows: CBF (hard), CLF with V = x^T cost.Q x relaxed by phi, then the 2m
    rows of the input box |u_i| <= cost.u_max. H = blkdiag(R, p), c_lin = 0
    and the box rows are built, and H checked, once here; `build_qp` writes
    the CBF and CLF rows at each state.
    """

    def __init__(self, sys, safeset, cost, params: QpParams):
        self.sys, self.safeset, self.cost, self.params = sys, safeset, cost, params
        m = sys.m
        d = m + 1
        H = np.zeros((d, d))
        H[:m, :m] = np.diag(cost.r_diag)
        H[m, m] = params.p
        A = np.zeros((2 + 2 * m, d))
        b = np.zeros(2 + 2 * m)
        A[1, m] = -1.0
        for i in range(m):
            A[2 + 2 * i, i] = 1.0
            b[2 + 2 * i] = cost.u_max
            A[3 + 2 * i, i] = -1.0
            b[3 + 2 * i] = cost.u_max
        # rows 0 and 1 are written at each state
        self.problem = QpProblem(H=H, c_lin=np.zeros(d), A=A, b=b)


def build_qp(ctrl: ControllerQp, x):
    """The QP of `ctrl` at state x: the CBF row reads a_h + b_h u >= 0 and
    the CLF row b_V u - phi <= -a_V, each the plant's condition at x. The
    rows are written into fresh copies of A and b, so a problem returned for
    one state is not changed by the next."""
    x = np.asarray(x, float)
    a_h, b_h = cbf_condition(ctrl.safeset, ctrl.params.alpha_scale, ctrl.sys, x)
    a_V, b_V = clf_condition(ctrl.cost.Q, ctrl.params.gamma_scale, ctrl.sys, x)
    m = ctrl.sys.m
    A, b = ctrl.problem.A.copy(), ctrl.problem.b.copy()
    A[0, :m] = -b_h
    b[0] = a_h
    A[1, :m] = b_V
    b[1] = -a_V
    return ctrl.problem.with_rows(A, b)


def qp_controller(ctrl: ControllerQp, x, start=()):
    """Solve the QP of `ctrl` at x, warm-started from the rows in `start`,
    and return the input block (applied zero-order hold) and the solution.
    Raises what `solve_qp` raises: QpInfeasible or QpSolverFailed."""
    prob = build_qp(ctrl, x)
    sol = solve_qp(prob, start=start)
    return sol.v_star[: ctrl.sys.m], sol
