"""Adaptive Dormand-Prince 5(4) integrator with PI step-size control,
exact stop times, per-accepted-step hooks, and step rejection when the
rhs reports a boundary violation."""

from __future__ import annotations

import math

import numpy as np

from .errors import BoundaryViolation, RunEnded

# Dormand-Prince 5(4) Butcher tableau; the stage times are Python floats,
# so that t + c h is float arithmetic, and the rows of A are built once, as
# arrays, for the stage sums
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = [np.array(row) for row in (
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
)]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

SAMPLE_BLOCK = 128  # output rows per block in StepRecord.sample


def dp54_step(rhs, t, y, h, f0):
    """One embedded step from (t, y) with rhs(t, y) = f0: returns (y_new,
    error_estimate, stages).

    The stage sums are np.dot, which gives the bits of `@` on these vector
    by matrix products at a lower call cost."""
    ks = np.empty((7, y.size))
    ks[0] = f0
    for i in range(1, 7):
        yi = y + h * np.dot(_A[i], ks[:i])
        ks[i] = rhs(t + _C[i] * h, yi)
    y_new = y + h * np.dot(_B5, ks)
    return y_new, h * np.dot(_E, ks), ks


def _edge(t):
    """The landing tolerance at a time t, or at each of an array of times:
    the run reads two times this close as one time."""
    return 1e-12 * np.maximum(1.0, abs(t))


def _rms(z):
    """The root mean square of z, bit for bit np.sqrt(np.mean(z ** 2)):
    np.mean is the same sum followed by one division."""
    q = z ** 2
    return math.sqrt(float(q.sum()) / q.size)


class StepRecord:
    """One entry per accepted time, strictly increasing: the state, the
    derivatives into and out of it (equal unless the hook changed the rhs
    there), and the integrator's work."""

    def __init__(self):
        self.ts = []
        self.ys = []
        self.fs_in = []
        self.fs_out = []
        self.rhs_evals = 0
        self.rejected_steps = 0

    def work(self):
        """rhs evaluations, accepted steps and rejected steps."""
        return {"rhs_evals": self.rhs_evals, "accepted_steps": len(self.ts) - 1,
                "rejected_steps": self.rejected_steps}

    def append(self, t, y, f_in, f_out):
        """Record copies, so that the caller may change its own arrays."""
        self.ts.append(t)
        self.ys.append(np.array(y))
        self.fs_in.append(np.array(f_in))
        self.fs_out.append(np.array(f_out))

    def sample(self, t_grid):
        """Cubic Hermite interpolation of the state on a time grid; each
        segment uses the derivative out of its start and into its end."""
        if len(self.ts) == 1:
            return np.tile(self.ys[0], (len(t_grid), 1))
        ts = np.asarray(self.ts)
        ys = np.asarray(self.ys)
        fi, fo = np.asarray(self.fs_in), np.asarray(self.fs_out)
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
            out[b] = h00 * ys[jb] + h10 * db * fo[jb] + h01 * ys[jb + 1] + h11 * db * fi[jb + 1]
        return out


def integrate_adaptive(rhs, t0, y0, t_final, tol, on_accept=None, first_step=1e-3, stops=()):
    """Integrate y' = rhs(t, y) from t0 to t_final, landing exactly on the
    set `stops`, less any outside (t0, t_final) or within the landing
    tolerance of t0, of a smaller stop or of t_final; step size and
    controller state carry across stops. The run ends OK at the first
    recorded time within the landing tolerance of t_final, so a t_final
    that close to t0 records the start alone. Returns (status, record)
    with status OK, SAFETY_BREACH, STEP_UNDERFLOW or that of a RunEnded.

    A step is accepted when the RMS of its error estimate over
    tol + tol max(|y|, |y_new|) is at most 1. rhs raising
    BoundaryViolation at a trial state rejects the step and halves it;
    a streak of such halvings that takes the step under the underflow
    floor ends the run with status SAFETY_BREACH (STEP_UNDERFLOW when the
    error control took it there). on_accept(t, y) is called at every time
    the record keeps: the start, before any rhs evaluation, and each
    accepted step. It may raise RunEnded(status) to end the run there (the
    point is recorded; ended at the start, the record is that one point and
    no rhs is evaluated), and it returns True when it changed the rhs at t
    (None otherwise): the point is then recorded with the step's own
    derivative into it and rhs(t, y), evaluated again, out of it.
    """
    record = StepRecord()

    def counted(t, y):
        record.rhs_evals += 1
        return rhs(t, y)

    t = float(t0)
    y = np.array(y0, dtype=float)
    f_in = None  # the derivative into y; the start has none
    end_edge = _edge(t_final)  # the landing tolerance at t_final
    kept = []
    for s in sorted(map(float, stops)):
        if s - (kept[-1] if kept else t) > _edge(s) and t_final - s > end_edge:
            kept.append(s)
    stops = kept + [float(t_final)]
    i_stop = 0
    h = first_step
    err_prev = 1.0
    refused = False  # whether the rhs refused the last attempt

    while True:
        # the hook's one call site: the start, then each accepted step
        try:
            changed = on_accept is not None and on_accept(t, y)
        except RunEnded as end:
            # a lone start's derivatives are never read: sample tiles it
            f = np.full_like(y, np.nan) if f_in is None else f_in
            record.append(t, y, f, f)
            return end.args[0], record
        # the derivative out of y: rhs(t, y) at the start and after the rhs changed
        f = np.asarray(counted(t, y), float) if changed or f_in is None else f_in
        record.append(t, y, f if f_in is None else f_in, f)
        if t_final - t <= end_edge:
            return "OK", record

        while True:  # step attempts, until one is accepted
            # a remainder within the landing tolerance of the step is taken
            # whole, and that step lands on the stop exactly
            t_stop = stops[i_stop]
            land = t_stop - t - h <= _edge(t_stop)
            if land:
                h = t_stop - t
            if h < 1e-15 * max(1.0, abs(t)):
                # an underflow at the end of a streak of refused steps means
                # the rhs, not the error control, drove h to zero
                return ("SAFETY_BREACH" if refused else "STEP_UNDERFLOW"), record
            try:
                y_new, err_vec, ks = dp54_step(counted, t, y, h, f)
            except BoundaryViolation:
                record.rejected_steps += 1
                refused = True
                h *= 0.5
                continue
            refused = False

            scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
            err = _rms(err_vec / scale)
            if err <= 1.0:
                t = t_stop if land else t + h
                i_stop += land
                y = y_new
                f_in = ks[6]  # FSAL
                # PI controller (Gustafsson)
                fac = 0.9 * err ** (-0.7 / 5.0) * err_prev ** (0.4 / 5.0) if err > 0 else 5.0
                h *= min(5.0, max(0.2, fac))
                err_prev = max(err, 1e-10)
                break
            record.rejected_steps += 1
            h *= min(1.0, max(0.2, 0.9 * err ** (-0.2)))
