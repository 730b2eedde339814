"""Relaxed CLF-CBF quadratic program and the dense dual active-set
solver behind it (Goldfarb and Idnani, "A numerically stable dual method
for solving strictly convex quadratic programs", Math. Programming 27,
1983).

Problems are stated as  min v^T H v + c_lin^T v  s.t.  A v <= b  with H
symmetric positive definite. The dual method starts at the unconstrained
minimum and needs no feasible start point. A solve may be warm-started
from a guess of the active set (the previous hold's, in the controller):
one equality-constrained solve on that set, kept only when it passes
every check the dual loop stops on, in the manner of the online active
set strategy of Ferreau, Bock and Diehl (IJRNC 18, 2008). The slack
A v - b of that point is formed once and serves both the violation test
and the KKT check.

`solve_qp` returns only verified optima: an infeasible problem raises
QpInfeasible, and a loop that does not converge, or ends on a point that
fails the KKT check, raises QpSolverFailed.

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
    H: np.ndarray
    c_lin: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.H = np.asarray(self.H, float)
        self.c_lin = np.asarray(self.c_lin, float)
        self.A = np.asarray(self.A, float)
        self.b = np.asarray(self.b, float)
        # np.allclose(H, H.T, atol=1e-12) without its overhead
        if not (abs(self.H - self.H.T) <= 1e-12 + 1e-5 * abs(self.H.T)).all():
            raise ValueError("H must be symmetric")

    @property
    def d(self):
        return self.H.shape[0]

    @property
    def k(self):
        return self.A.shape[0]

    def with_rows(self, A, b):
        """This problem with the constraints A v <= b in place of its own.
        H and c_lin are shared with this problem and not checked again."""
        prob = object.__new__(QpProblem)
        prob.H, prob.c_lin, prob.A, prob.b = self.H, self.c_lin, A, b
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


def kkt_residuals(prob: QpProblem, v, multipliers, slack=None):
    """KKT residuals for  min v^T H v + c^T v  s.t.  A v <= b.

    Stationarity uses 2 H v + c + A^T lam = 0. `slack` is A v - b when the
    caller has it already.
    """
    v = np.asarray(v, float)
    lam = np.asarray(multipliers, float)
    if slack is None:
        slack = prob.A @ v - prob.b
    r = 2.0 * prob.H @ v + prob.c_lin + prob.A.T @ lam
    return {
        "stationarity": math.sqrt(float(r.dot(r))),  # np.linalg.norm(r), without its overhead
        "primal": float(max(0.0, slack.max())) if slack.size else 0.0,
        "dual": float(max(0.0, -(lam.min()))) if lam.size else 0.0,
        "complementarity": float(np.abs(lam * slack).max()) if lam.size else 0.0,
    }


def kkt_ok(prob, v, multipliers, slack=None):
    res = kkt_residuals(prob, v, multipliers, slack)
    return all(r <= KKT_TOL for r in res.values())


def _equality_solve(prob: QpProblem, W):
    """The point and multipliers of min v^T H v + c^T v s.t. A_W v = b_W,
    for a sorted list W of at most d independent rows (LinAlgError when
    they are dependent)."""
    d = prob.d
    A_W, b_W = prob.A[W], prob.b[W]
    if len(W) == d:
        # a vertex: solving A_W v = b_W keeps the active rows exact even when
        # the multipliers are large; these then follow from stationarity
        v = np.linalg.solve(A_W, b_W)
        return v, np.linalg.solve(A_W.T, -(2.0 * prob.H @ v + prob.c_lin))
    KKT = np.zeros((d + len(W), d + len(W)))
    KKT[:d, :d] = 2.0 * prob.H
    KKT[:d, d:] = A_W.T
    KKT[d:, :d] = A_W
    sol = np.linalg.solve(KKT, np.concatenate([-prob.c_lin, b_W]))
    return sol[:d], sol[d:]


def _solution(prob: QpProblem, W, v, lam, iterations):
    lam_full = np.zeros(prob.k)
    lam_full[W] = lam
    return QpSolution(v_star=v, active_set=tuple(W), multipliers=lam_full, iterations=iterations)


def _warm_solve(prob: QpProblem, start):
    """The solution on the rows of `start` taken as equalities, or None
    unless it meets every condition the dual loop stops on: each row
    violated by at most SOLVE_TOL, no negative multiplier, and the KKT
    check."""
    W = sorted(start)
    if len(W) > prob.d or len(set(W)) < len(W) or W[0] < 0 or W[-1] >= prob.k:
        return None
    try:
        v, lam = _equality_solve(prob, W)
    except np.linalg.LinAlgError:  # dependent rows
        return None
    slack = prob.A @ v - prob.b
    if slack.max() > SOLVE_TOL or (lam < 0.0).any():
        return None
    sol = _solution(prob, W, v, lam, 0)
    return sol if kkt_ok(prob, v, sol.multipliers, slack=slack) else None


def solve_qp(prob: QpProblem, start=()):
    """Goldfarb-Idnani dual active-set method (Math. Programming 27, 1983)
    with an optional warm start.

    A non-empty `start` (row indices, for instance the active set of the
    previous, nearby problem) is tried first: one equality-constrained
    solve on sorted(start), accepted only when every row is violated by at
    most SOLVE_TOL, every multiplier is >= 0 and the KKT check passes; the
    slack A v - b is formed once for both tests. Anything else (a stale or
    invalid start, dependent rows, an infeasible problem) runs the dual
    loop from scratch, as does an empty start.

    The dual loop starts at the unconstrained minimum and adds the most
    violated row (smallest index on ties); an active row is dropped when
    its multiplier would turn negative first (a partial step). No finite
    step means the problem is infeasible, and QpInfeasible is raised. Both
    paths return the point that solves the sorted final active set as
    equalities, so the result depends only on the problem and that set,
    and a warm hit equals the cold solve ending on the same set bit for
    bit. `iterations` counts passes of the dual loop (0 on a warm hit).
    Every returned solution satisfies the KKT conditions at KKT_TOL
    (verified before returning); QpSolverFailed is raised otherwise, and
    when MAX_ITER passes do not converge.
    """
    if len(start):
        warm = _warm_solve(prob, start)
        if warm is not None:
            return warm
    A, b = prob.A, prob.b
    # in w = L^T v, with 2H = L L^T, the Hessian is I and the rows are A L^-T
    L_T_inv = np.linalg.inv(np.linalg.cholesky(2.0 * prob.H)).T
    Aw = A @ L_T_inv
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
    sol = _solution(prob, W, v, lam, it)
    if not kkt_ok(prob, v, sol.multipliers):
        raise QpSolverFailed("active-set solver produced a non-KKT point")
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
    the CLF row b_V u - phi <= -a_V, with drift, input map, h and grad of h
    evaluated once each. The rows are written into fresh copies of A and
    b, so a problem returned for one state is not changed by the next."""
    x = np.asarray(x, float)
    sys = ctrl.sys
    f = np.asarray(sys.drift(x), float)
    g = np.asarray(sys.input_map(x), float)
    a_h, b_h = cbf_condition(ctrl.safeset, ctrl.params.alpha_scale, x, f, g)
    a_V, b_V = clf_condition(ctrl.cost.Q, ctrl.params.gamma_scale, x, f, g)
    m = sys.m
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
