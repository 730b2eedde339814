"""Adaptive Dormand-Prince 5(4) integrator with PI step-size control,
per-accepted-step hooks, and state-based step rejection."""

from __future__ import annotations

import numpy as np

from .errors import BoundaryViolation

# Dormand-Prince 5(4) Butcher tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

MAX_SAFETY_HALVINGS = 40
SAMPLE_BLOCK = 128  # output rows per block in StepRecord.sample


def dp54_step(rhs, t, y, h, f0=None):
    """One embedded step: returns (y_new, error_estimate, stages)."""
    ks = np.empty((7, y.size))
    ks[0] = rhs(t, y) if f0 is None else f0
    for i in range(1, 7):
        yi = y + h * (np.asarray(_A[i]) @ ks[:i])
        ks[i] = np.asarray(rhs(t + _C[i] * h, yi), float)
    y_new = y + h * (_B5 @ ks)
    return y_new, h * (_E @ ks), ks


class StepRecord:
    """Accepted steps: times, states, and derivatives for dense output."""

    def __init__(self):
        self.ts = []
        self.ys = []
        self.fs = []

    def append(self, t, y, f):
        self.ts.append(t)
        self.ys.append(np.array(y))
        self.fs.append(np.array(f))

    def extend(self, other):
        """Append another record's steps, its start point included: at a
        junction the time repeats with the derivative of each side."""
        self.ts += other.ts
        self.ys += other.ys
        self.fs += other.fs

    def sample(self, t_grid):
        """Cubic Hermite interpolation of the state on a time grid. A time
        that two steps share is read from the earlier segment, which ends
        on that point exactly."""
        if len(self.ts) == 1:
            return np.tile(self.ys[0], (len(t_grid), 1))
        ts = np.asarray(self.ts)
        ys = np.asarray(self.ys)
        fs = np.asarray(self.fs)
        j = np.clip(np.searchsorted(ts, t_grid, side="left"), 1, len(ts) - 1) - 1
        dt = (ts[j + 1] - ts[j])[:, None]
        s = np.clip((np.asarray(t_grid)[:, None] - ts[j][:, None]) / dt, 0.0, 1.0)
        out = np.empty((len(j), ys.shape[1]))
        # blocks of rows bound the temporaries; each row's arithmetic is as
        # in one whole-array expression
        for lo in range(0, len(j), SAMPLE_BLOCK):
            b = slice(lo, lo + SAMPLE_BLOCK)
            jb, sb, db = j[b], s[b], dt[b]
            h00 = (1 + 2 * sb) * (1 - sb) ** 2
            h10 = sb * (1 - sb) ** 2
            h01 = sb * sb * (3 - 2 * sb)
            h11 = sb * sb * (sb - 1)
            out[b] = h00 * ys[jb] + h10 * db * fs[jb] + h01 * ys[jb + 1] + h11 * db * fs[jb + 1]
        return out


def integrate_adaptive(rhs, t0, y0, t_final, abs_tol=1e-6, rel_tol=1e-6,
                       unsafe=None, on_accept=None, first_step=1e-3):
    """Integrate y' = rhs(t, y) from t0 to t_final.

    unsafe(y) -> bool rejects proposed states (step halved; after
    MAX_SAFETY_HALVINGS consecutive halvings the run ends with status
    SAFETY_BREACH). rhs raising BoundaryViolation at a trial state is
    treated the same way. on_accept(t, y) may return a replacement state
    applied after each accepted step.

    Returns (status, record) with status OK, SAFETY_BREACH, or
    STEP_UNDERFLOW.
    """
    t = float(t0)
    y = np.array(y0, dtype=float)
    f = np.asarray(rhs(t, y), float)
    record = StepRecord()
    record.append(t, y, f)
    h = min(first_step, t_final - t0)
    err_prev = 1.0
    safety_halvings = 0

    t_edge = 1e-12 * max(1.0, abs(t_final))
    while t < t_final:
        # a remainder within t_edge of the step is taken whole, and that
        # step lands on t_final exactly
        last = t_final - t - h <= t_edge
        if last:
            h = t_final - t
        if h < 1e-15 * max(1.0, abs(t)):
            # an underflow mid-way through a safety-halving streak means
            # the rejection, not the error control, drove h to zero
            return ("SAFETY_BREACH" if safety_halvings > 0 else "STEP_UNDERFLOW"), record
        try:
            y_new, err_vec, ks = dp54_step(rhs, t, y, h, f0=f)
            blocked = unsafe is not None and unsafe(y_new)
        except BoundaryViolation:
            blocked = True
            y_new = None
        if blocked:
            safety_halvings += 1
            if safety_halvings > MAX_SAFETY_HALVINGS:
                return "SAFETY_BREACH", record
            h *= 0.5
            continue
        safety_halvings = 0

        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if err <= 1.0:
            t = t_final if last else t + h
            y = y_new
            if on_accept is not None:
                replaced = on_accept(t, y)
                if replaced is not None:
                    y = np.asarray(replaced, float)
                    f = np.asarray(rhs(t, y), float)
                else:
                    f = ks[6]  # FSAL
            else:
                f = ks[6]
            record.append(t, y, f)
            # PI controller (Gustafsson)
            fac = 0.9 * err ** (-0.7 / 5.0) * err_prev ** (0.4 / 5.0) if err > 0 else 5.0
            h *= min(5.0, max(0.2, fac))
            err_prev = max(err, 1e-10)
        else:
            h *= min(1.0, max(0.2, 0.9 * err ** (-0.2)))
    return "OK", record
