"""Independent oracles used by the test suite and the `selftest`
subcommand: exhaustive active-set enumeration for QPs, quadrature for the
input penalty, and finite-difference gradient checks."""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy.integrate import quad

from .cost import BarrierSpec, CostSpec, barrier_B, barrier_Bbar, grad_Bbar
from .errors import QpInfeasible
from .model import CircularSafeSet
from .qpsolve import QpProblem, solve_qp
from .staf import StaFConfig, grad_sigma, kernel_sigma


def enumerate_qp(prob: QpProblem, tol=1e-8):
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
            if np.any(prob.A @ v > prob.b + tol) or np.any(lam < -tol):
                continue
            obj = prob.objective(v)
            if best is None or obj < best[2] - 1e-15:
                best = (v, tuple(S), obj)
    return best


def quadrature_Ru(cost: CostSpec, u):
    """Adaptive-quadrature evaluation of the saturating input penalty."""
    ub = cost.u_max
    total = 0.0
    for ui, ri in zip(np.asarray(u, float), cost.r_diag):
        val, _err = quad(lambda z: 2.0 * ub * ri * np.arctanh(z / ub), 0.0, ui,
                         epsabs=1e-12, epsrel=1e-12)
        total += val
    return total


def central_difference(fun, x, eps=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, float)
    g = np.empty_like(x)
    for i in range(x.size):
        dx = np.zeros_like(x)
        dx[i] = eps
        g[i] = (fun(x + dx) - fun(x - dx)) / (2.0 * eps)
    return g


def _rel_err(approx, exact):
    denom = max(np.linalg.norm(np.atleast_1d(exact)), 1e-12)
    return np.linalg.norm(np.atleast_1d(approx) - np.atleast_1d(exact)) / denom


# ---------------------------------------------------------------------------
# selftest suites
# ---------------------------------------------------------------------------

def _interior_points(rng, safeset: CircularSafeSet, count, lo=0.1):
    pts = []
    while len(pts) < count:
        x = rng.uniform(-1.0, 5.0, size=2)
        if safeset.h(x) > 1e-3 and np.linalg.norm(x - safeset.center) >= lo:
            pts.append(x)
    return pts


def selftest_gradients(seed=0, count=100, tol=1e-5):
    """Analytic gradients of h, sigma, Bbar, and B vs central differences."""
    rng = np.random.default_rng(seed)
    safeset = CircularSafeSet(center=np.array([2.0, 2.0]), radius=1.0)
    bar = BarrierSpec(safeset, k_p=1.0, a=0.5, d_on=0.2, d_off=1.0)
    cfg = StaFConfig(offsets=[[0.0, -1.0], [0.866, -0.5], [-0.866, -0.5]], scale_num=0.5)
    results = []

    worst = 0.0
    for x in _interior_points(rng, safeset, count):
        worst = max(worst, _rel_err(central_difference(safeset.h, x), safeset.grad(x)))
    results.append(("grad_h vs central differences", worst <= tol, f"max rel err {worst:.3e}"))

    worst = 0.0
    for _ in range(count):
        x = rng.uniform(-2.0, 2.0, size=2)
        y = rng.uniform(-2.0, 2.0, size=2)
        G = grad_sigma(cfg, y, x)
        for i in range(cfg.L):
            fd = central_difference(lambda yy, i=i: kernel_sigma(cfg, yy, x)[i], y)
            worst = max(worst, _rel_err(fd, G[i]))
    results.append(("grad_sigma vs central differences", worst <= tol, f"max rel err {worst:.3e}"))

    worst = 0.0
    for x in _interior_points(rng, safeset, count):
        worst = max(worst, _rel_err(central_difference(lambda y: barrier_Bbar(bar, y), x),
                                    grad_Bbar(bar, x)))
    results.append(("grad_Bbar vs central differences", worst <= tol, f"max rel err {worst:.3e}"))

    worst = 0.0
    for x in _interior_points(rng, safeset, count, lo=1.05):
        fd = central_difference(lambda y: barrier_B(bar, y), x)
        gh = safeset.grad(x)
        h = safeset.h(x)
        from .cost import _ds_dh, _s_of_h  # analytic B gradient for the check
        exact = bar.k_p * (_ds_dh(bar, h) * h - _s_of_h(bar, h)) / (h * h) * gh
        worst = max(worst, _rel_err(fd, exact))
    results.append(("grad_B vs central differences", worst <= tol, f"max rel err {worst:.3e}"))
    return results


def random_qp(rng, d=3, k=6):
    """Random strictly convex, feasible, full-dimensional instance."""
    M = rng.normal(size=(d, d))
    H = M @ M.T + 0.2 * np.eye(d)
    H = 0.5 * (H + H.T)
    c = rng.normal(size=d)
    A = rng.normal(size=(k, d))
    v0 = rng.normal(size=d)
    b = A @ v0 + rng.uniform(0.1, 1.0, size=k)
    return QpProblem(H=H, c_lin=c, A=A, b=b)


def selftest_qp(seed=0, count=500, tol_v=1e-6, tol_obj=1e-8):
    """Active-set solver vs exhaustive KKT enumeration on random instances."""
    rng = np.random.default_rng(seed)
    worst_v = 0.0
    worst_obj = 0.0
    for _ in range(count):
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
    ok = worst_v <= tol_v and worst_obj <= tol_obj
    return [("QP active-set vs enumeration", ok,
             f"{count} instances, max |dv|={worst_v:.3e}, max |dobj|={worst_obj:.3e}")]


def selftest_quadrature(seed=0, count=200, tol=1e-8):
    """Closed-form input penalty vs adaptive quadrature."""
    from .cost import input_penalty_Ru
    rng = np.random.default_rng(seed)
    cost = CostSpec(Q=np.eye(2), r_diag=np.array([10.0, 10.0]), u_max=0.5)
    worst = 0.0
    for _ in range(count):
        u = rng.uniform(-0.499, 0.499, size=2)
        exact = input_penalty_Ru(cost, u)
        ref = quadrature_Ru(cost, u)
        worst = max(worst, abs(exact - ref) / max(abs(ref), 1e-12))
    limit = input_penalty_Ru(cost, np.array([0.5, 0.5]))
    limit_ref = 2 * 2.0 * 0.5 ** 2 * 10.0 * np.log(2.0)
    ok = worst <= tol and abs(limit - limit_ref) <= 1e-6
    return [("input penalty closed form vs quadrature", ok,
             f"max rel err {worst:.3e}, corner err {abs(limit - limit_ref):.3e}")]


def run_selftest():
    """All oracle suites; returns list of (name, passed, detail)."""
    results = []
    results += selftest_gradients()
    results += selftest_qp()
    results += selftest_quadrature()
    return results
