"""Independent oracles used by the test suite and the `selftest`
subcommand: exhaustive active-set enumeration for QPs, Gauss-Legendre
quadrature for the input penalty, the obstacle-free values of the boxed
single integrator (closed form under the quadratic input cost, quadrature
under the saturating penalty), and finite-difference gradient checks."""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .config import build_scenario
from .cost import CostSpec, barrier_B, barrier_Bbar, grad_Bbar, input_penalty_Ru
from .errors import QpInfeasible
from .model import CircularSafeSet
from .qpsolve import QpProblem, solve_qp
from .staf import centers, kernel_sigma

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)

ENUM_TOL = 1e-8  # enumerate_qp's feasibility and multiplier-sign tolerance
FD_EPS = 1e-6  # central_difference's step
# the selftest suites: each draws from default_rng(SELFTEST_SEED); a
# suite's count is its sample size and its tolerances its pass bounds
SELFTEST_SEED = 0
GRAD_COUNT, GRAD_TOL = 100, 1e-5
QP_COUNT, QP_TOL_V, QP_TOL_OBJ = 500, 1e-6, 1e-8
QUAD_COUNT, QUAD_TOL = 200, 1e-8
VALUE_COUNT, VALUE_TOL = 100, 1e-5  # the HJB residual over max(1, x^T Q x)
# the largest w = q x_i^2 / (2 u_max^2 r_i) the value suite samples: there
# tanh(V'/(2 u_max r)) = sqrt(1 - e^(-2w)) stays below 1 - 1e-12, where
# input_penalty_Ru switches to its corner limit (w of about 13.5)
VALUE_W_MAX = 12.0


def enumerate_qp(prob: QpProblem):
    """Brute-force optimum: check the KKT conditions over every active
    subset of at most d constraints. Returns (v, active_set, objective)
    or None when no KKT point exists (infeasible problem)."""
    d, k = prob.d, prob.k
    P = 2.0 * prob.H
    q = prob.c_lin
    best = None
    for r in range(0, d + 1):
        for S in combinations(range(k), r):
            AS = prob.A[list(S)]
            KKT = np.zeros((d + r, d + r))
            KKT[:d, :d] = P
            if r:
                KKT[:d, d:] = AS.T
                KKT[d:, :d] = AS
            rhs = np.concatenate([-q, prob.b[list(S)]])
            try:
                sol = np.linalg.solve(KKT, rhs)
            except np.linalg.LinAlgError:
                continue
            v = sol[:d]
            lam = sol[d:]
            if np.any(prob.A @ v > prob.b + ENUM_TOL) or np.any(lam < -ENUM_TOL):
                continue
            obj = prob.objective(v)
            if best is None or obj < best[2] - 1e-15:
                best = (v, tuple(S), obj)
    return best


def quadrature_Ru(cost: CostSpec, u):
    """The input penalty sum_i int_0^u_i 2 u_max r_i atanh(z/u_max) dz, |u_i| < u_max, by
    64-point Gauss-Legendre in s = atanh(z/u_max): the integrands 2 u_max^2 r_i s sech^2(s)
    are analytic near the real axis, so the rule converges geometrically."""
    s_end = np.arctanh(np.asarray(u, float) / cost.u_max)
    s = 0.5 * s_end[:, None] * (1.0 + _GL_NODES)
    integrals = 0.5 * s_end * ((s / np.cosh(s) ** 2) @ _GL_WEIGHTS)
    return float(2.0 * cost.u_max ** 2 * (cost.r_diag @ integrals))


def _diagonal_q(cost: CostSpec):
    """Q's diagonal; the obstacle-free values decouple only for a diagonal Q."""
    q = np.diag(cost.Q)
    if np.count_nonzero(cost.Q - np.diag(q)):
        raise ValueError("Q must be diagonal")
    return q


def box_quadratic_value(cost: CostSpec, x):
    """The optimal cost-to-go of xdot = u with running cost x^T Q x + u^T R u
    and |u_i| <= u_max, for diagonal Q, per row of x; no safe set. Per
    component, with a = u_max sqrt(r/q): sqrt(qr) x^2 for |x| <= a, and
    sqrt(qr) a^2 + q(|x|^3 - a^3)/(3 u_max) + r u_max (|x| - a) beyond."""
    q, r, ub = _diagonal_q(cost), cost.r_diag, cost.u_max
    a, z = ub * np.sqrt(r / q), np.abs(np.asarray(x, float))
    far = np.sqrt(q * r) * a * a + q * (z ** 3 - a ** 3) / (3.0 * ub) + r * ub * (z - a)
    return np.where(z <= a, np.sqrt(q * r) * z * z, far).sum(-1)


def box_native_value(cost: CostSpec, x):
    """The optimal cost-to-go of xdot = u with the paper's running cost
    x^T Q x + Ru(u) (the saturating input penalty, |u_i| < u_max), for
    diagonal Q, per row of x; no safe set. Per component
    V'(s) = 2 u_max r acosh(exp(w)), w = q s^2 / (2 u_max^2 r), with
    u* = -u_max tanh(V' / (2 u_max r)); V' is integrated over [0, |x|] by
    64-point Gauss-Legendre, with acosh(e^w) = w + log1p(sqrt(-expm1(-2w)))
    so that a large |x| does not overflow."""
    q, r, ub = _diagonal_q(cost), cost.r_diag[:, None], cost.u_max
    z = np.abs(np.asarray(x, float))
    s = 0.5 * z[..., None] * (1.0 + _GL_NODES)
    w = q[:, None] * s * s / (2.0 * ub * ub * r)
    dV = 2.0 * ub * r * (w + np.log1p(np.sqrt(-np.expm1(-2.0 * w))))
    return (0.5 * z * (dV @ _GL_WEIGHTS)).sum(-1)


def central_difference(fun, x):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, float)
    g = np.empty_like(x)
    for i in range(x.size):
        dx = np.zeros_like(x)
        dx[i] = FD_EPS
        g[i] = (fun(x + dx) - fun(x - dx)) / (2.0 * FD_EPS)
    return g


def _rel_err(approx, exact):
    denom = max(np.linalg.norm(np.atleast_1d(exact)), 1e-12)
    return np.linalg.norm(np.atleast_1d(approx) - np.atleast_1d(exact)) / denom


# ---------------------------------------------------------------------------
# selftest suites
# ---------------------------------------------------------------------------

def _interior_points(rng, safeset: CircularSafeSet, count, h_min=1e-3):
    pts = []
    while len(pts) < count:
        x = rng.uniform(safeset.center - 3.0, safeset.center + 3.0)
        if safeset.h(x) > h_min:
            pts.append(x)
    return pts


def selftest_gradients():
    """Analytic gradients of h, sigma, Bbar, and B vs central differences (default scenario)."""
    rng = np.random.default_rng(SELFTEST_SEED)
    scn = build_scenario()
    safeset, bar, cfg = scn.safeset, scn.barrier, scn.staf
    results = []

    worst = 0.0
    for x in _interior_points(rng, safeset, GRAD_COUNT):
        worst = max(worst, _rel_err(central_difference(safeset.h, x), safeset.h_grad(x)[1]))
    results.append(("grad_h vs central differences", worst <= GRAD_TOL, f"max rel err {worst:.3e}"))

    worst = 0.0
    for _ in range(GRAD_COUNT):
        x = rng.uniform(-2.0, 2.0, size=2)
        y = rng.uniform(-2.0, 2.0, size=2)
        G = centers(cfg, x)  # sigma's gradient in y
        for i in range(cfg.L):
            fd = central_difference(lambda yy, i=i: kernel_sigma(cfg, yy, x)[i], y)
            worst = max(worst, _rel_err(fd, G[i]))
    results.append(("grad_sigma vs central differences", worst <= GRAD_TOL,
                    f"max rel err {worst:.3e}"))

    worst = 0.0
    for x in _interior_points(rng, safeset, GRAD_COUNT):
        worst = max(worst, _rel_err(central_difference(lambda y: barrier_Bbar(bar, y), x),
                                    grad_Bbar(bar, x)))
    results.append(("grad_Bbar vs central differences", worst <= GRAD_TOL,
                    f"max rel err {worst:.3e}"))

    worst = 0.0
    for x in _interior_points(rng, safeset, GRAD_COUNT, h_min=0.05):
        fd = central_difference(lambda y: barrier_B(bar, y), x)
        h, gh = safeset.h_grad(x)
        s, ds = bar.schedule(h)  # analytic B gradient for the check
        exact = bar.k_p * (ds * h - s) / (h * h) * gh
        worst = max(worst, _rel_err(fd, exact))
    results.append(("grad_B vs central differences", worst <= GRAD_TOL, f"max rel err {worst:.3e}"))
    return results


def random_qp(rng, d=3, k=6):
    """Random strictly convex, feasible, full-dimensional instance."""
    M = rng.normal(size=(d, d))
    H = M @ M.T + 0.2 * np.eye(d)
    c = rng.normal(size=d)
    A = rng.normal(size=(k, d))
    v0 = rng.normal(size=d)
    b = A @ v0 + rng.uniform(0.1, 1.0, size=k)
    return QpProblem(H=H, c_lin=c, A=A, b=b)


def selftest_qp():
    """Active-set solver vs exhaustive KKT enumeration on random instances."""
    rng = np.random.default_rng(SELFTEST_SEED)
    worst_v = 0.0
    worst_obj = 0.0
    for _ in range(QP_COUNT):
        prob = random_qp(rng)
        ref = enumerate_qp(prob)
        try:
            sol = solve_qp(prob)
        except QpInfeasible:
            sol = None
        if sol is None or ref is None:
            return [("QP active-set vs enumeration", False,
                     f"feasibility mismatch: solver {'optimum' if sol else 'infeasible'}, "
                     f"oracle {'optimum' if ref else 'none'}")]
        worst_v = max(worst_v, float(np.linalg.norm(sol.v_star - ref[0], np.inf)))
        worst_obj = max(worst_obj, abs(prob.objective(sol.v_star) - ref[2]))
    ok = worst_v <= QP_TOL_V and worst_obj <= QP_TOL_OBJ
    return [("QP active-set vs enumeration", ok,
             f"{QP_COUNT} instances, max |dv|={worst_v:.3e}, max |dobj|={worst_obj:.3e}")]


def selftest_quadrature():
    """Closed-form input penalty (default scenario's cost) vs quadrature, and
    at the corner u_i = u_max vs its limit 2 u_max^2 ln 2 sum_i r_i."""
    rng = np.random.default_rng(SELFTEST_SEED)
    cost = build_scenario().cost
    worst = 0.0
    for _ in range(QUAD_COUNT):
        u = cost.u_max * rng.uniform(-0.998, 0.998, size=cost.r_diag.size)
        exact = input_penalty_Ru(cost, u)
        ref = quadrature_Ru(cost, u)
        worst = max(worst, abs(exact - ref) / max(abs(ref), 1e-12))
    limit = input_penalty_Ru(cost, np.full(cost.r_diag.size, cost.u_max))
    limit_ref = 2.0 * cost.u_max ** 2 * np.log(2.0) * cost.r_diag.sum()
    ok = worst <= QUAD_TOL and abs(limit - limit_ref) <= 1e-6
    return [("input penalty closed form vs quadrature", ok,
             f"max rel err {worst:.3e}, corner err {abs(limit - limit_ref):.3e}")]


def selftest_values():
    """The obstacle-free values V_q and V_nat (default scenario's cost) vs
    their HJB equations, 0 = x^T Q x + cost(u*) + grad V . u*, with grad V
    by central differences: u* the clipped minimiser of u^T R u + grad V . u
    for V_q, and -u_max tanh(grad V / (2 u_max r)) under the input penalty
    for V_nat; |x_i| up to w = VALUE_W_MAX."""
    rng = np.random.default_rng(SELFTEST_SEED)
    cost = build_scenario().cost
    ub, r = cost.u_max, cost.r_diag
    x_max = ub * np.sqrt(2.0 * r * VALUE_W_MAX / np.diag(cost.Q))
    worst_q = worst_nat = 0.0
    for _ in range(VALUE_COUNT):
        x = rng.uniform(-x_max, x_max)
        xQx = cost.state_cost(x)
        gV = central_difference(lambda y: box_quadratic_value(cost, y), x)
        u = np.clip(-gV / (2.0 * r), -ub, ub)
        worst_q = max(worst_q, abs(xQx + cost.quadratic_input_cost(u) + gV @ u) / max(1.0, xQx))
        gV = central_difference(lambda y: box_native_value(cost, y), x)
        u = -ub * np.tanh(gV / cost.two_umax_r)
        worst_nat = max(worst_nat, abs(xQx + input_penalty_Ru(cost, u) + gV @ u) / max(1.0, xQx))
    return [("obstacle-free values V_q, V_nat vs their HJB equations",
             max(worst_q, worst_nat) <= VALUE_TOL,
             f"max rel residual V_q {worst_q:.3e}, V_nat {worst_nat:.3e}")]


def run_selftest():
    """All oracle suites; returns list of (name, passed, detail)."""
    results = []
    results += selftest_gradients()
    results += selftest_qp()
    results += selftest_quadrature()
    results += selftest_values()
    return results
