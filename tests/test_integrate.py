import numpy as np
import pytest

from safeadp.errors import BoundaryViolation
from safeadp.integrate import StepRecord, dp54_step, integrate_adaptive


def test_exponential_decay():
    status, rec = integrate_adaptive(lambda t, y: -y, 0.0, np.array([1.0]), 1.0)
    assert status == "OK"
    assert rec.ys[-1][0] == pytest.approx(np.exp(-1.0), abs=1e-6)


def test_dense_output_accuracy():
    status, rec = integrate_adaptive(lambda t, y: -y, 0.0, np.array([1.0]), 2.0)
    grid = np.linspace(0.0, 2.0, 101)
    vals = rec.sample(grid)[:, 0]
    assert np.max(np.abs(vals - np.exp(-grid))) <= 1e-5


def test_convergence_order():
    # fixed-step error on y' = -y should shrink at 5th order
    def solve(h):
        y = np.array([1.0])
        t = 0.0
        while t < 1.0 - 1e-12:
            y, _err, _ks = dp54_step(lambda _t, yy: -yy, t, y, h)
            t += h
        return abs(y[0] - np.exp(-1.0))

    e1 = solve(0.1)
    e2 = solve(0.05)
    order = np.log2(e1 / e2)
    assert order >= 4.0


def test_tolerance_controls_error():
    def run(tol):
        _s, rec = integrate_adaptive(lambda t, y: np.array([y[1], -y[0]]),
                                     0.0, np.array([1.0, 0.0]), 10.0,
                                     abs_tol=tol, rel_tol=tol)
        return abs(rec.ys[-1][0] - np.cos(10.0)), len(rec.ts)

    err_loose, n_loose = run(1e-4)
    err_tight, n_tight = run(1e-8)
    assert err_tight < err_loose
    assert n_tight > n_loose
    assert err_tight <= 1e-6


def test_deterministic():
    rhs = lambda t, y: np.array([np.sin(t) - y[0]])
    _s1, r1 = integrate_adaptive(rhs, 0.0, np.array([0.5]), 5.0)
    _s2, r2 = integrate_adaptive(rhs, 0.0, np.array([0.5]), 5.0)
    np.testing.assert_array_equal(np.asarray(r1.ts), np.asarray(r2.ts))
    np.testing.assert_array_equal(np.asarray(r1.ys), np.asarray(r2.ys))


def test_unsafe_halving_then_breach():
    # the flow drives y through zero; unsafe rejects y <= 0, so the run
    # must end in SAFETY_BREACH before crossing
    status, rec = integrate_adaptive(lambda t, y: np.array([-1.0]),
                                     0.0, np.array([1.0]), 10.0,
                                     unsafe=lambda y: y[0] <= 0.0)
    assert status == "SAFETY_BREACH"
    assert rec.ys[-1][0] > 0.0


def test_rhs_boundary_violation_treated_as_unsafe():
    def rhs(t, y):
        if y[0] <= 0.0:
            raise BoundaryViolation("left the domain")
        return np.array([-1.0])

    status, rec = integrate_adaptive(rhs, 0.0, np.array([1.0]), 10.0)
    assert status == "SAFETY_BREACH"
    assert rec.ys[-1][0] > 0.0


def test_on_accept_replacement():
    # clamp the state after every accepted step; the stored trajectory
    # must reflect the replacement
    def clamp(t, y):
        return np.minimum(y, 0.5)

    status, rec = integrate_adaptive(lambda t, y: np.array([1.0]),
                                     0.0, np.array([0.0]), 2.0, on_accept=clamp)
    assert status == "OK"
    assert max(y[0] for y in rec.ys) <= 0.5


def test_single_record_sample():
    rec = StepRecord()
    rec.append(0.0, np.array([1.0, 2.0]), np.array([0.0, 0.0]))
    out = rec.sample(np.array([0.0, 0.5]))
    np.testing.assert_allclose(out, [[1.0, 2.0], [1.0, 2.0]])


def _hermite_row(rec, t):
    """Row-by-row cubic Hermite, the reference for the vectorised sampler."""
    j = 0
    while j < len(rec.ts) - 2 and rec.ts[j + 1] < t:
        j += 1
    dt = rec.ts[j + 1] - rec.ts[j]
    s = min(max((t - rec.ts[j]) / dt, 0.0), 1.0)
    return ((1 + 2 * s) * (1 - s) ** 2 * rec.ys[j] + s * (1 - s) ** 2 * dt * rec.fs[j]
            + s * s * (3 - 2 * s) * rec.ys[j + 1] + s * s * (s - 1) * dt * rec.fs[j + 1])


def test_sample_matches_row_by_row_hermite():
    _s, rec = integrate_adaptive(lambda t, y: np.array([y[1], np.sin(3 * t) - y[0]]),
                                 0.0, np.array([1.0, 0.0]), 5.0)
    grid = np.sort(np.concatenate([np.linspace(-0.1, 5.1, 523), rec.ts]))
    ref = np.array([_hermite_row(rec, t) for t in grid])
    # the same formula; only the rounding of (1 - s)**2 may differ
    tol = 8 * np.finfo(float).eps * np.max(np.abs(ref))
    np.testing.assert_allclose(rec.sample(grid), ref, rtol=0, atol=tol)


def test_sample_reads_each_side_of_a_junction():
    # two holds meet at t = 1 with different slopes: the shared time is
    # read from the earlier segment, later times from the later one
    rec = StepRecord()
    rec.append(0.0, np.array([0.0]), np.array([1.0]))
    rec.append(1.0, np.array([1.0]), np.array([1.0]))
    rec.append(1.0, np.array([1.0]), np.array([-2.0]))
    rec.append(2.0, np.array([-1.0]), np.array([-2.0]))
    out = rec.sample(np.array([0.5, 1.0, 1.5, 2.0]))[:, 0]
    assert out[1] == 1.0
    np.testing.assert_allclose(out, [0.5, 1.0, 0.0, -1.0], rtol=0, atol=1e-15)


def test_sample_reproduces_a_cubic():
    def p(t):
        return 2 * t ** 3 - t ** 2 + 0.5 * t - 3

    def dp(t):
        return 6 * t ** 2 - 2 * t + 0.5

    rec = StepRecord()
    for t in (0.0, 0.3, 1.1, 2.0):
        rec.append(t, np.array([p(t)]), np.array([dp(t)]))
    grid = np.linspace(0.0, 2.0, 41)
    np.testing.assert_allclose(rec.sample(grid)[:, 0], p(grid), rtol=1e-14, atol=1e-14)


def test_reaches_exact_final_time():
    for t_final in (1.0, 2.5, 11.44, 25.0):
        status, rec = integrate_adaptive(lambda t, y: -0.1 * y, 0.0,
                                         np.array([1.0]), t_final)
        assert status == "OK"
        assert rec.ts[-1] == pytest.approx(t_final, abs=1e-9)


def test_lands_on_final_time_when_remainder_exceeds_step_by_an_ulp():
    # a constant rhs accepts every step, so the step stays at first_step
    # and the remainder is the one ulp over it (or the QP hold 5.8 -> 5.9)
    for t0, t_final in ((0.0, np.nextafter(0.1, 1.0)), (5.8, 5.9)):
        status, rec = integrate_adaptive(lambda t, y: np.array([1.0]), t0,
                                         np.array([0.0]), t_final, first_step=0.1)
        assert status == "OK"
        assert rec.ts[-1] == t_final
        assert len(rec.ts) == 2


def test_sample_peak_memory_is_at_most_twice_the_output():
    import tracemalloc
    # the ADP output shape: 2501 rows of a 19-wide state from 84 steps
    rng = np.random.default_rng(0)
    rec = StepRecord()
    for t in np.linspace(0.0, 25.0, 84):
        rec.append(t, rng.normal(size=19), rng.normal(size=19))
    grid = np.linspace(0.0, 25.0, 2501)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = rec.sample(grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.nbytes
