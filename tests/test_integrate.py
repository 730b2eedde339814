import numpy as np
import pytest

from safeadp.errors import BoundaryViolation, RunEnded
import safeadp.integrate as integrate
from safeadp.integrate import StepRecord, dp54_step, integrate_adaptive

TOL = 1e-6  # the integrator tolerance of every test that does not vary it


def test_exponential_decay():
    status, rec = integrate_adaptive(lambda t, y: -y, 0.0, np.array([1.0]), 1.0, TOL)
    assert status == "OK"
    assert rec.ys[-1][0] == pytest.approx(np.exp(-1.0), abs=1e-6)


def test_dense_output_accuracy():
    status, rec = integrate_adaptive(lambda t, y: -y, 0.0, np.array([1.0]), 2.0, TOL)
    grid = np.linspace(0.0, 2.0, 101)
    vals = rec.sample(grid)[:, 0]
    assert np.max(np.abs(vals - np.exp(-grid))) <= 1e-5


def test_convergence_order():
    # fixed-step error on y' = -y should shrink at 5th order
    def solve(h):
        y = np.array([1.0])
        t = 0.0
        while t < 1.0 - 1e-12:
            y, _err, _ks = dp54_step(lambda _t, yy: -yy, t, y, h, -y)
            t += h
        return abs(y[0] - np.exp(-1.0))

    e1 = solve(0.1)
    e2 = solve(0.05)
    order = np.log2(e1 / e2)
    assert order >= 4.0


def test_tolerance_controls_error():
    def run(tol):
        _s, rec = integrate_adaptive(lambda t, y: np.array([y[1], -y[0]]),
                                     0.0, np.array([1.0, 0.0]), 10.0, tol=tol)
        return abs(rec.ys[-1][0] - np.cos(10.0)), len(rec.ts)

    err_loose, n_loose = run(1e-4)
    err_tight, n_tight = run(1e-8)
    assert err_tight < err_loose
    assert n_tight > n_loose
    assert err_tight <= 1e-6


def test_deterministic():
    rhs = lambda t, y: np.array([np.sin(t) - y[0]])
    _s1, r1 = integrate_adaptive(rhs, 0.0, np.array([0.5]), 5.0, TOL)
    _s2, r2 = integrate_adaptive(rhs, 0.0, np.array([0.5]), 5.0, TOL)
    np.testing.assert_array_equal(np.asarray(r1.ts), np.asarray(r2.ts))
    np.testing.assert_array_equal(np.asarray(r1.ys), np.asarray(r2.ys))


def test_rhs_boundary_violation_treated_as_unsafe():
    def rhs(t, y):
        if y[0] <= 0.0:
            raise BoundaryViolation("left the domain")
        return np.array([-1.0])

    status, rec = integrate_adaptive(rhs, 0.0, np.array([1.0]), 10.0, TOL)
    assert status == "SAFETY_BREACH"
    assert rec.ys[-1][0] > 0.0


@pytest.mark.parametrize("size", [3, 19])  # the QP state [x, J]; the ADP state at n = 2, L = 3
def test_error_norm_is_numpys_rms_bit_for_bit(size):
    rng = np.random.default_rng(size)
    for _ in range(2000):
        z = rng.normal(size=size) * 10.0 ** rng.uniform(-12, 4, size=size)
        assert integrate._rms(z) == float(np.sqrt(np.mean(z ** 2)))


def test_work_is_counted(monkeypatch):
    # a decay that the error test rejects at the first, too-large step
    evals, attempts = [], []
    dp54 = integrate.dp54_step

    def rhs(t, y):
        evals.append(t)
        return -50.0 * y

    def counted_step(*args, **kwargs):
        attempts.append(None)
        return dp54(*args, **kwargs)

    monkeypatch.setattr(integrate, "dp54_step", counted_step)
    status, rec = integrate_adaptive(rhs, 0.0, np.array([1.0]), 1.0, TOL, first_step=0.5)
    assert status == "OK"
    work = rec.work()
    assert work["rhs_evals"] == len(evals) == 1 + 6 * len(attempts)
    assert work["accepted_steps"] == len(rec.ts) - 1
    assert work["rejected_steps"] == len(attempts) - work["accepted_steps"] > 0


def test_work_counts_replaced_states_once_and_halvings_as_rejections():
    # a state at which the hook changed the rhs is recorded once, as one
    # step; a step into the boundary is a rejected attempt; the hook's
    # first call is the start
    refusals = []

    def rhs(t, y):
        if y[0] >= 1.0:
            refusals.append(t)
            raise BoundaryViolation("past the wall")
        return np.array([1.0])

    hooked = []

    def switch(t, y):
        hooked.append(t)
        return True

    status, rec = integrate_adaptive(rhs, 0.0, np.array([0.0]), 2.0, TOL, first_step=0.3,
                                     on_accept=switch)
    work = rec.work()
    assert status == "SAFETY_BREACH"
    assert rec.ts == hooked and hooked[0] == 0.0
    assert np.all(np.diff(rec.ts) > 0)
    assert work["accepted_steps"] == len(rec.ts) - 1 == len(hooked) - 1 > 0
    # a constant slope has no error estimate, so every rejection is a refusal
    assert work["rejected_steps"] == len(refusals) > 0


def test_refused_steps_end_at_the_underflow_floor(monkeypatch):
    # a wall in time at the first accepted t >= 0.3: from there every trial
    # stage lies past it, so each attempt is refused and halved until the
    # step falls under the underflow floor, 1e-15 max(1, |t|), which ends
    # the run SAFETY_BREACH with the wall as the last recorded time
    wall, tried = [], []
    dp54 = integrate.dp54_step

    def rhs(t, y):
        if wall and t > wall[0]:
            raise BoundaryViolation("past the wall")
        return -y

    def set_wall(t, y):
        if not wall and t >= 0.3:
            wall.append(t)

    def step(rhs_, t, y, h, f0):
        tried.append((t, h))
        return dp54(rhs_, t, y, h, f0)

    monkeypatch.setattr(integrate, "dp54_step", step)
    status, rec = integrate_adaptive(rhs, 0.0, np.array([1.0]), 2.0, TOL, on_accept=set_wall)
    assert status == "SAFETY_BREACH"
    assert rec.ts[-1] == wall[0]
    # every attempt from the wall is refused, each half the one before;
    # the last is at or above the floor and its half under it
    streak = [h for t, h in tried if t == wall[0]]
    assert len(streak) <= rec.rejected_steps
    assert all(b == 0.5 * a for a, b in zip(streak, streak[1:]))
    assert 0.5 * streak[-1] < 1e-15 * max(1.0, wall[0]) <= streak[-1]


def test_rhs_that_reuses_its_output_buffer():
    # the record copies each derivative, so an rhs writing into one buffer
    # gives the same record and dense output as one returning new arrays
    buf = np.zeros(2)

    def reused(t, y):
        buf[0], buf[1] = y[1], -y[0]
        return buf

    def fresh(t, y):
        return np.array([y[1], -y[0]])

    _, a = integrate_adaptive(reused, 0.0, np.array([1.0, 0.0]), 3.0, TOL)
    _, b = integrate_adaptive(fresh, 0.0, np.array([1.0, 0.0]), 3.0, TOL)
    np.testing.assert_array_equal(np.array(a.fs_in), np.array(b.fs_in))
    np.testing.assert_array_equal(np.array(a.fs_out), np.array(b.fs_out))
    grid = np.linspace(0.0, 3.0, 31)
    np.testing.assert_array_equal(a.sample(grid), b.sample(grid))

def test_lands_on_every_stop():
    # stops closer than the step the controller would take, off any step
    # boundary, and one a hair past the previous step
    stops = [0.05, 0.3, 0.3000001, 1.7, 2.9]
    status, rec = integrate_adaptive(lambda t, y: np.array([y[1], -y[0]]), 0.0,
                                     np.array([1.0, 0.0]), 3.0, TOL, stops=stops)
    assert status == "OK"
    assert rec.ts[-1] == 3.0
    assert set(stops) <= set(rec.ts)
    assert rec.ts == sorted(rec.ts)
    np.testing.assert_allclose(rec.sample(np.array(stops))[:, 0], np.cos(stops),
                               rtol=0, atol=1e-6)


@pytest.mark.parametrize("stops, kept", [
    ([0.5, 0.5], [0.5]),  # a repeated stop
    ([0.7, 0.3], [0.3, 0.7]),  # unsorted stops
    ([1.0 - 1e-16], []),  # within the landing tolerance of t_final
    ([1e-17], []),  # within the landing tolerance of t0
    ([-0.5, 0.3, 0.3 + 1e-13, 1.5], [0.3]),  # outside (t0, t_final), and a near repeat
])
def test_stops_are_a_set(stops, kept):
    status, rec = integrate_adaptive(lambda t, y: -y, 0.0, np.array([1.0]), 1.0, TOL, stops=stops)
    assert status == "OK"
    assert rec.ts[-1] == 1.0
    assert set(kept) <= set(rec.ts)
    assert np.all(np.diff(rec.ts) > 0)
    assert rec.ys[-1][0] == pytest.approx(np.exp(-1.0), abs=1e-6)


def test_hook_switching_the_rhs_gives_exact_segments():
    # the hook switches the constant slope after each accepted step, so the
    # exact solution is piecewise linear; each segment's Hermite must use
    # the slope it was integrated with at both of its ends
    slope = {"c": 1.0}
    switches = [(0.0, 0.0, 1.0)]  # (t, y, slope from t on)

    def switch(t, y):
        slope["c"] = -2.0 * slope["c"] + 0.5
        switches.append((t, y[0], slope["c"]))
        return True

    status, rec = integrate_adaptive(lambda t, y: np.array([slope["c"]]), 0.0,
                                     np.array([0.0]), 2.0, TOL, on_accept=switch,
                                     stops=[0.7, 1.3])
    assert status == "OK" and len(switches) >= 6
    for (ta, ya, c), (tb, _yb, _c) in zip(switches, switches[1:]):
        mid = np.linspace(ta, tb, 7)[1:-1]
        np.testing.assert_allclose(rec.sample(mid)[:, 0], ya + c * (mid - ta),
                                   rtol=0, atol=1e-12)


def test_hook_ends_the_run_with_its_status():
    seen = []

    def stop_late(t, y):
        seen.append((t, y.copy()))
        if t >= 0.5:
            raise RunEnded("STOPPED")

    status, rec = integrate_adaptive(lambda t, y: -y, 0.0, np.array([1.0]), 2.0, TOL,
                                     on_accept=stop_late)
    assert status == "STOPPED"
    t_end, y_end = seen[-1]
    assert 0.5 <= t_end < 2.0
    assert rec.ts[-1] == t_end and rec.ts.count(t_end) == 1
    np.testing.assert_array_equal(rec.ys[-1], y_end)
    assert len(rec.ts) == len(seen)  # the start is among the hook's calls


def test_first_hook_call_is_the_start_before_any_rhs_evaluation():
    evals, calls = [], []

    def rhs(t, y):
        evals.append(t)
        return -y

    def hook(t, y):
        calls.append((t, y.copy(), len(evals)))

    status, rec = integrate_adaptive(rhs, 0.25, np.array([1.0, -2.0]), 1.0, TOL, on_accept=hook)
    assert status == "OK"
    t, y, evaluated = calls[0]
    assert t == 0.25 and evaluated == 0
    np.testing.assert_array_equal(y, [1.0, -2.0])
    assert [c[0] for c in calls] == rec.ts


def test_hook_ending_the_run_at_the_start_records_the_start_alone():
    evals = []

    def rhs(t, y):
        evals.append(t)
        return -y

    def refuse(t, y):
        raise RunEnded("REFUSED")

    y0 = np.array([1.0, -2.0])
    status, rec = integrate_adaptive(rhs, 0.25, y0, 1.0, TOL, on_accept=refuse, stops=[0.5])
    assert status == "REFUSED"
    assert rec.ts == [0.25] and evals == []
    assert rec.work() == {"rhs_evals": 0, "accepted_steps": 0, "rejected_steps": 0}
    grid = np.array([-1.0, 0.25, 0.3, 7.0])
    np.testing.assert_array_equal(rec.sample(grid), np.tile(y0, (len(grid), 1)))


def test_rhs_switch_at_the_start_is_recorded_with_the_rhs_after_it():
    rate = {"k": 1.0}

    def rhs(t, y):
        return -rate["k"] * y

    def switch_at_start(t, y):
        if t == 0.0:
            rate["k"] = 2.0
            return True

    status, rec = integrate_adaptive(rhs, 0.0, np.array([1.0]), 1.0, TOL, on_accept=switch_at_start)
    assert status == "OK"
    np.testing.assert_array_equal(rec.ys[0], [1.0])
    np.testing.assert_array_equal(rec.fs_in[0], [-2.0])
    np.testing.assert_array_equal(rec.fs_out[0], [-2.0])
    # one evaluation at the start and 6 per attempt
    assert rec.rhs_evals == 1 + 6 * (rec.work()["accepted_steps"] + rec.rejected_steps)
    assert rec.ys[-1][0] == pytest.approx(np.exp(-2.0), abs=1e-6)


def test_single_record_sample():
    rec = StepRecord()
    rec.append(0.0, np.array([1.0, 2.0]), np.array([0.0, 0.0]), np.array([3.0, -1.0]))
    out = rec.sample(np.array([0.0, 0.5]))
    np.testing.assert_allclose(out, [[1.0, 2.0], [1.0, 2.0]])


def _hermite_row(rec, t):
    """Row-by-row cubic Hermite, the reference for the vectorised sampler."""
    j = 0
    while j < len(rec.ts) - 2 and rec.ts[j + 1] < t:
        j += 1
    dt = rec.ts[j + 1] - rec.ts[j]
    s = min(max((t - rec.ts[j]) / dt, 0.0), 1.0)
    return ((1 + 2 * s) * (1 - s) ** 2 * rec.ys[j] + s * (1 - s) ** 2 * dt * rec.fs_out[j]
            + s * s * (3 - 2 * s) * rec.ys[j + 1] + s * s * (s - 1) * dt * rec.fs_in[j + 1])


def test_sample_matches_row_by_row_hermite():
    # the hook scales the rhs anew at every accepted step, so the
    # derivative out of each recorded time differs from the one into it
    gain = {"g": 1.0}

    def rescale(t, y):
        gain["g"] *= 0.999
        return True

    _s, rec = integrate_adaptive(lambda t, y: gain["g"] * np.array([y[1], np.sin(3 * t) - y[0]]),
                                 0.0, np.array([1.0, 0.0]), 5.0, TOL, on_accept=rescale)
    assert all(np.all(a != b) for a, b in zip(rec.fs_in[1:], rec.fs_out[1:]))
    grid = np.sort(np.concatenate([np.linspace(-0.1, 5.1, 523), rec.ts]))
    ref = np.array([_hermite_row(rec, t) for t in grid])
    # the same formula; only the rounding of (1 - s)**2 may differ
    tol = 8 * np.finfo(float).eps * np.max(np.abs(ref))
    np.testing.assert_allclose(rec.sample(grid), ref, rtol=0, atol=tol)


def test_sample_reads_each_side_of_a_junction():
    # two holds meet at t = 1 with different slopes: the segment before it
    # ends with the slope into t = 1, the one after starts with the slope
    # out of it
    rec = StepRecord()
    rec.append(0.0, np.array([0.0]), np.array([1.0]), np.array([1.0]))
    rec.append(1.0, np.array([1.0]), np.array([1.0]), np.array([-2.0]))
    rec.append(2.0, np.array([-1.0]), np.array([-2.0]), np.array([-2.0]))
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
        rec.append(t, np.array([p(t)]), np.array([dp(t)]), np.array([dp(t)]))
    grid = np.linspace(0.0, 2.0, 41)
    np.testing.assert_allclose(rec.sample(grid)[:, 0], p(grid), rtol=1e-14, atol=1e-14)


def test_reaches_exact_final_time():
    for t_final in (1.0, 2.5, 11.44, 25.0):
        status, rec = integrate_adaptive(lambda t, y: -0.1 * y, 0.0,
                                         np.array([1.0]), t_final, TOL)
        assert status == "OK"
        assert rec.ts[-1] == pytest.approx(t_final, abs=1e-9)


def test_lands_on_final_time_when_remainder_exceeds_step_by_an_ulp():
    # a constant rhs accepts every step, so the step stays at first_step
    # and the remainder is the one ulp over it (or the QP hold 5.8 -> 5.9)
    for t0, t_final in ((0.0, np.nextafter(0.1, 1.0)), (5.8, 5.9)):
        status, rec = integrate_adaptive(lambda t, y: np.array([1.0]), t0,
                                         np.array([0.0]), t_final, TOL, first_step=0.1)
        assert status == "OK"
        assert rec.ts[-1] == t_final
        assert len(rec.ts) == 2


def test_sample_peak_memory_is_at_most_twice_the_output():
    import tracemalloc
    # the ADP output shape: 2501 rows of a 19-wide state from 84 steps
    rng = np.random.default_rng(0)
    rec = StepRecord()
    for t in np.linspace(0.0, 25.0, 84):
        rec.append(t, rng.normal(size=19), rng.normal(size=19), rng.normal(size=19))
    grid = np.linspace(0.0, 25.0, 2501)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = rec.sample(grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.nbytes
