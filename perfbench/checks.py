"""Correctness checks for benchmark outputs.

Every check recomputes something apart from the code under test: the
safe-set distance from the geometry, the running cost by trapezoid
quadrature over the output rows, the state increments from the recorded
inputs, and the QP optimum by exhaustive enumeration on a QP assembled
here from the problem data. Each function returns a list of error strings;
an empty list means the output passed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerances, each a few orders above the gap measured on correct output
# (see README.md, "Correctness checks").
J_REL_TOL = 1e-4          # J[-1] vs trapezoid quadrature; measured ~5e-6
ADP_STEP_TOL = 1e-4       # |dx - dt * mean(u)| per row; measured ~8e-6
QP_STEP_TOL = 1e-12       # |dx - dt * u| per row under a zero-order hold
QP_U_TOL = 1e-9           # |u - enumerated optimum|; measured ~1e-13
CBF_TOL = 1e-9
DELTA_WINDOW = 5.0        # seconds, same windows as the summary
DELTA_DECAY = 0.5         # late mean |delta| <= 0.5 x early mean |delta|


@dataclass
class Problem:
    """The problem data the benchmark hands to the program, kept here so
    that the checks do not read them back from the program."""

    center: np.ndarray
    radius: float
    Q: np.ndarray
    r_diag: np.ndarray
    u_max: float
    p: float
    alpha_scale: float
    gamma_scale: float
    t_final: float
    dt: float

    @classmethod
    def from_values(cls, values):
        n = len(values["safeset.center"])
        return cls(center=np.asarray(values["safeset.center"], float),
                   radius=float(values["safeset.radius"]),
                   Q=np.asarray(values["cost.Q"], float).reshape(n, n),
                   r_diag=np.asarray(values["cost.r_diag"], float),
                   u_max=float(values["cost.u_max"]),
                   p=float(values["qp.p"]),
                   alpha_scale=float(values["qp.alpha_scale"]),
                   gamma_scale=float(values["qp.gamma_scale"]),
                   t_final=float(values["sim.t_final"]),
                   dt=float(values["sim.dt_out"]))


@dataclass
class Rows:
    """Output rows of one episode, from a record or from its CSV."""

    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    h: np.ndarray
    delta: np.ndarray
    J: np.ndarray
    status: str


def record_matrix(record):
    """The record's numeric columns in the CSV's column order."""
    return np.column_stack([record.t, record.x, record.u, record.h, record.B,
                            record.Vhat, record.delta, record.Wc, record.Wa,
                            record.min_eig_gamma, record.c1, record.J])


def read_csv(path):
    """(header, numeric matrix, status column) of a trajectory CSV."""
    with open(path, encoding="utf-8", newline="") as fh:
        header = fh.readline().rstrip("\n").split(",")
        values, statuses = [], []
        for line in fh:
            *nums, status = line.rstrip("\n").split(",")
            values.append([float(v) for v in nums])
            statuses.append(status)
    return header, np.array(values), statuses


def rows_from_csv(path):
    header, data, statuses = read_csv(path)
    col = {name: i for i, name in enumerate(header)}

    def block(prefix):
        return data[:, [i for name, i in col.items()
                        if name.startswith(prefix) and name[len(prefix):].isdigit()]]

    return Rows(t=data[:, col["t"]], x=block("x"), u=block("u"), h=data[:, col["h"]],
                delta=data[:, col["delta"]], J=data[:, col["J"]],
                status=statuses[-1] if statuses else "EMPTY")


def readback_errors(record, path):
    """The CSV must parse back to the record exactly, NaN for NaN."""
    _, data, statuses = read_csv(path)
    expected = record_matrix(record)
    if data.shape != expected.shape:
        return [f"{path}: CSV shape {data.shape} != record shape {expected.shape}"]
    same = (data == expected) | (np.isnan(data) & np.isnan(expected))
    errors = []
    if not same.all():
        i, j = np.argwhere(~same)[0]
        errors.append(f"{path}: row {i} column {j} reads {data[i, j]!r}, "
                      f"record holds {expected[i, j]!r}")
    want = ["OK"] * (len(statuses) - 1) + [record.status]
    if statuses != want:
        errors.append(f"{path}: status column does not match record status {record.status}")
    return errors


def _common_errors(rows, x0, prob):
    errors = []
    if rows.status != "OK":
        errors.append(f"status={rows.status}")
    steps = round(prob.t_final / prob.dt)
    if len(rows.t) != steps + 1 or abs(rows.t[-1] - prob.t_final) > 1e-9:
        errors.append(f"episode stopped at t={rows.t[-1]:g} after {len(rows.t)} rows")
    if not np.array_equal(rows.x[0], np.asarray(x0, float)):
        errors.append(f"first row x={rows.x[0]} is not x0={x0}")
    h = np.linalg.norm(rows.x - prob.center, axis=1) - prob.radius
    if np.max(np.abs(h - rows.h)) > 1e-12:
        errors.append("h column disagrees with the distance to the obstacle")
    return errors, h


def _running_cost(rows, prob):
    return np.einsum("ri,ij,rj->r", rows.x, prob.Q, rows.x), rows.u ** 2 @ prob.r_diag


def _j_error(J_end, J_ref):
    gap = abs(J_end - J_ref) / max(abs(J_ref), 1e-12)
    return [] if gap <= J_REL_TOL else [f"J[-1]={J_end:.10g} vs quadrature {J_ref:.10g} "
                                        f"(relative gap {gap:.2e})"]


def adp_errors(rows, x0, prob):
    """Properties every ADP episode of the benchmark must have."""
    errors, h = _common_errors(rows, x0, prob)
    if h.min() <= 0.0:
        errors.append(f"min_h={h.min():.3g} <= 0")
    x0n = float(np.linalg.norm(x0))
    xend = float(np.linalg.norm(rows.x[-1]))
    if xend > 0.1 * x0n:
        errors.append(f"terminal |x|={xend:.3g} > 0.1 |x0|={0.1 * x0n:.3g}")
    umax = float(np.max(np.abs(rows.u)))
    if umax >= prob.u_max:
        errors.append(f"max |u|={umax:.17g} >= u_max")
    ad = np.abs(rows.delta)
    early = ad[(rows.t <= rows.t[0] + DELTA_WINDOW) & np.isfinite(ad)]
    late = ad[(rows.t >= rows.t[-1] - DELTA_WINDOW) & np.isfinite(ad)]
    if not early.size or not late.size or late.mean() > DELTA_DECAY * early.mean():
        errors.append("Bellman error did not decay: late mean |delta| "
                      f"{late.mean() if late.size else np.nan:.3g} vs early "
                      f"{early.mean() if early.size else np.nan:.3g}")
    # single integrator: x' = u, so each increment is the trapezoid of u
    step = np.diff(rows.x, axis=0) - prob.dt * 0.5 * (rows.u[1:] + rows.u[:-1])
    if np.max(np.abs(step)) > ADP_STEP_TOL:
        errors.append(f"state increments disagree with u by {np.max(np.abs(step)):.3g}")
    qx, ru = _running_cost(rows, prob)
    errors += _j_error(float(rows.J[-1]), float(np.trapezoid(qx + ru, rows.t)))
    return errors


def rebuild_qp(x, prob):
    """The relaxed CLF-CBF QP at x for the single integrator, in the form
    min v'Hv s.t. Av <= b with v = [u; slack]."""
    from safeadp import QpProblem

    m = prob.r_diag.size
    d = x - prob.center
    gh = d / np.linalg.norm(d)
    h = float(np.linalg.norm(d)) - prob.radius
    gV = 2.0 * prob.Q @ x
    H = np.diag(np.append(prob.r_diag, prob.p))
    A = [np.append(-gh, 0.0), np.append(gV, -1.0)]
    b = [prob.alpha_scale * h, -prob.gamma_scale * float(x @ prob.Q @ x)]
    for i in range(m):
        e = np.zeros(m + 1)
        e[i] = 1.0
        A += [e, -e]
        b += [prob.u_max, prob.u_max]
    return QpProblem(H=H, c_lin=np.zeros(m + 1), A=np.array(A), b=np.array(b))


def qp_errors(rows, x0, prob, holds):
    """Properties every QP-baseline episode must have; `holds` are the row
    indices whose input is re-derived by exhaustive enumeration."""
    from safeadp.oracles import enumerate_qp

    errors, h = _common_errors(rows, x0, prob)
    if h.min() < -1e-6:
        errors.append(f"min_h={h.min():.3g} < -1e-6")
    umax = float(np.max(np.abs(rows.u)))
    if umax > prob.u_max + 1e-9:
        errors.append(f"max |u|={umax:.17g} > u_max")
    # zero-order hold at the output rate: x[i+1] - x[i] = dt * u[i]
    step = np.diff(rows.x, axis=0) - prob.dt * rows.u[:-1]
    if np.max(np.abs(step)) > QP_STEP_TOL:
        errors.append(f"state increments disagree with the held u by {np.max(np.abs(step)):.3g}")
    qx, ru = _running_cost(rows, prob)
    J_ref = float(np.trapezoid(qx, rows.t) + np.sum(ru[:-1] * np.diff(rows.t)))
    errors += _j_error(float(rows.J[-1]), J_ref)
    for i in holds:
        x, u = rows.x[i], rows.u[i]
        best = enumerate_qp(rebuild_qp(x, prob))
        if best is None:
            errors.append(f"hold {i}: enumeration finds the QP infeasible")
            continue
        gap = float(np.max(np.abs(best[0][: u.size] - u)))
        if gap > QP_U_TOL:
            errors.append(f"hold {i}: u={u} differs from the enumerated optimum by {gap:.3g}")
        d = x - prob.center
        margin = float(d @ u / np.linalg.norm(d)) + prob.alpha_scale * h[i]
        if margin < -CBF_TOL:
            errors.append(f"hold {i}: CBF margin {margin:.3g} < 0")
    return errors
