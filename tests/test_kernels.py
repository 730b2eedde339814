"""Row kernels: every kernel evaluated on a batch of rows equals the same
kernel evaluated one row at a time, and a batch holding one bad row fails
as that row alone would."""

import numpy as np
import pytest

import safeadp as sa
from safeadp import cost as sa_cost
from safeadp import sim as sa_sim
from safeadp.cost import BBAR_OFFSET, D_OFF, D_ON
from safeadp.errors import BoundaryViolation, SingularGradient

R = 200


def assert_within_ulps(batched, rows, ulps=8):
    batched, rows = np.asarray(batched), np.asarray(rows)
    assert batched.shape == rows.shape
    tol = ulps * np.spacing(np.maximum(np.abs(batched), np.abs(rows)))
    assert np.all(np.abs(batched - rows) <= tol), np.max(np.abs(batched - rows) / tol)


def row_by_row(fun, *arrays):
    """fun applied to each row of the arrays, stacked."""
    return np.array([fun(*row) for row in zip(*arrays)])


@pytest.fixture(scope="module")
def scn():
    return sa.build_scenario()


@pytest.fixture(scope="module")
def rows(scn):
    """States at levels h spread over the barrier's three regimes: near the
    boundary (1e-8 .. 0.05), inside the scheduling band D_ON .. D_OFF, and
    beyond D_OFF; plus per-row anchors and weights."""
    rng = np.random.default_rng(42)
    bar = scn.barrier
    h = np.concatenate([10.0 ** rng.uniform(-8, np.log10(0.05), R // 4),
                        rng.uniform(0.05, D_ON, R // 4),
                        rng.uniform(D_ON, D_OFF, R // 4),
                        rng.uniform(D_OFF, 3.0, R - 3 * (R // 4))])
    ang = rng.uniform(0.0, 2 * np.pi, R)
    ys = scn.safeset.center + (scn.safeset.radius + h)[:, None] * np.column_stack(
        (np.cos(ang), np.sin(ang)))
    return {
        "y": ys,
        "x": ys + rng.uniform(-0.05, 0.05, size=ys.shape) * (h[:, None] > 0.1),
        "Wc": rng.normal(scale=3.0, size=(R, scn.staf.L)),
        "Wa": rng.normal(scale=3.0, size=(R, scn.staf.L)),
        "u": rng.uniform(-0.5, 0.5, size=(R, scn.system.m)),
    }


def test_rows_cover_every_barrier_regime(scn, rows):
    h = scn.safeset.h(rows["y"])
    bar = scn.barrier
    assert np.all(h > sa_cost.H_MIN)
    assert np.sum(h < 1e-6) >= 10
    assert np.sum((h > D_ON) & (h < D_OFF)) >= 40
    assert np.sum(h > D_OFF) >= 40


def test_geometry_and_system_kernels(scn, rows):
    sys_, safe = scn.system, scn.safeset
    y, u = rows["y"], rows["u"]
    assert_within_ulps(safe.h(y), row_by_row(safe.h, y))
    for part in (0, 1):  # h and grad h
        assert_within_ulps(safe.h_grad(y)[part], row_by_row(lambda a: safe.h_grad(a)[part], y))
    lin = sa.SystemModel(A=np.array([[0.0, 1.0], [-1.0, -0.5]]),
                         B=np.array([[0.0, 0.3], [1.0, 0.2]]))
    Q = np.array([[2.0, 0.5], [0.5, 1.0]])
    for plant in (sys_, lin):  # the conditions read the drift A x and B from the plant
        assert_within_ulps(plant.xdot(y, u), row_by_row(plant.xdot, y, u))

        def cbf_margin(x, v):  # cbf_condition's a + b u
            a, b = sa.cbf_condition(safe, 2.0, plant, x)
            return a + np.vecdot(b, v)

        assert_within_ulps(cbf_margin(y, u), row_by_row(cbf_margin, y, u))

        def clf_margin(x, v):  # clf_condition's a + b u
            a, b = sa.clf_condition(Q, 10.0, plant, x)
            return a + np.vecdot(b, v)

        assert_within_ulps(clf_margin(y, u), row_by_row(clf_margin, y, u))


def test_cost_kernels(scn, rows):
    cost, bar = scn.cost, scn.barrier
    y, u = rows["y"], rows["u"]
    h = scn.safeset.h(y)
    for fun, arg in ((cost.state_cost, y), (cost.quadratic_input_cost, u),
                     (lambda a: sa.input_penalty_Ru(cost, a), u),
                     (lambda a: bar.schedule(a)[0], h),
                     (lambda a: bar.schedule(a)[1], h),
                     (lambda a: sa.barrier_B(bar, a), y),
                     (lambda a: sa.barrier_Bbar(bar, a), y),
                     (lambda a: sa.grad_Bbar(bar, a), y)):
        assert_within_ulps(fun(arg), row_by_row(fun, arg))
    assert_within_ulps(sa.instantaneous_cost(cost, bar, y, u),
                       row_by_row(lambda a, b: sa.instantaneous_cost(cost, bar, a, b), y, u))


def test_h_grad_is_h_and_the_gradient_bit_for_bit(scn, rows):
    # one x - c and one norm give what h and the gradient written out
    # apart, (x - c)/|x - c|, give; a row at the center, alone or in a
    # batch, raises SingularGradient
    safe = scn.safeset
    y = rows["y"]
    h, gh = safe.h_grad(y)
    d = y - safe.center
    np.testing.assert_array_equal(h, safe.h(y))
    np.testing.assert_array_equal(gh, d / np.sqrt(np.vecdot(d, d))[:, None])
    y_bad = y.copy()
    y_bad[7] = safe.center
    for x in (safe.center, y_bad):
        with pytest.raises(SingularGradient):
            safe.h_grad(x)


def _pair_written_out(bar, y):
    h, gh = bar.safeset.h_grad(y)
    ha = h + BBAR_OFFSET
    s, ds_dh = bar.schedule(h)
    return bar.k_p * s / h, (bar.k_p * (ds_dh * ha - s) / (ha * ha))[..., None] * gh


def test_barrier_pair_is_the_two_kernels_bit_for_bit(scn, rows, monkeypatch):
    # one pass over h, grad h and the schedule gives what barrier_B and
    # grad_Bbar give apart, and the written-out formula, on rows below D_ON,
    # inside the band and above D_OFF; a second batch of the same shape gets
    # its own ramp, not the first one's. A batch wholly at or beyond D_OFF,
    # one row or many, gets exact zeros (+0.0) without the schedule.
    bar, safe = scn.barrier, scn.safeset
    y = rows["y"]
    h = safe.h(y)
    axes = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0], [-1.0, 0.0]])
    at_off = safe.center + (safe.radius + D_OFF) * axes
    assert np.all(safe.h(at_off) == D_OFF)
    beyond = np.concatenate([at_off, y[h > D_OFF]])
    in_band = y[(h > D_ON) & (h < D_OFF)][:1]
    batches = {"mixed": y, "reversed": y[::-1], "one in the band": np.concatenate([beyond, in_band]),
               "at D_OFF": at_off, "beyond D_OFF": beyond, "one row beyond": beyond[-1]}
    for name, yb in batches.items():
        B, gB = sa_cost.barrier_B_grad_Bbar(bar, yb)
        np.testing.assert_array_equal(B, sa.barrier_B(bar, yb), err_msg=name)
        np.testing.assert_array_equal(gB, sa.grad_Bbar(bar, yb), err_msg=name)
        B_ref, gB_ref = _pair_written_out(bar, yb)
        np.testing.assert_array_equal(B, B_ref, err_msg=name)
        np.testing.assert_array_equal(gB, gB_ref, err_msg=name)
        assert np.shape(gB) == np.shape(yb)

    def no_schedule(_h):
        raise AssertionError("schedule evaluated beyond D_OFF")

    monkeypatch.setattr(bar, "schedule", no_schedule)
    for yb in (at_off, beyond, beyond[-1]):
        B, gB = sa_cost.barrier_B_grad_Bbar(bar, yb)
        assert np.all(B == 0.0) and np.all(gB == 0.0)
        assert not np.signbit(B).any() and not np.signbit(gB).any()
    with pytest.raises(AssertionError, match="schedule"):
        sa_cost.barrier_B_grad_Bbar(bar, np.concatenate([beyond, in_band]))


def test_barrier_pair_checks_the_floor_before_the_band(scn):
    # a row at or below H_MIN fails the batch even when every other row is
    # beyond D_OFF; a row at the set center is a BoundaryViolation too, as
    # for barrier_B, and a SingularGradient only where the floor admits it
    bar, safe = scn.barrier, scn.safeset
    far = safe.center + np.array([0.0, safe.radius + 2.0 * D_OFF])
    for bad in (safe.center + np.array([safe.radius, 0.0]),  # h = 0
                safe.center + np.array([0.0, -safe.radius - 0.5e-9]),  # h = 5e-10
                safe.center):  # h = -radius, grad h undefined
        for fun in (sa_cost.barrier_B_grad_Bbar, sa.barrier_B):
            with pytest.raises(BoundaryViolation):
                fun(bar, np.array([far, bad]))
    with pytest.raises(BoundaryViolation):
        sa.grad_Bbar(bar, np.array([far, safe.center]))  # -radius <= -BBAR_OFFSET
    small = sa.CircularSafeSet(center=np.array([2.0, 2.0]), radius=0.3)
    wide = sa.BarrierSpec(small, k_p=1.0)
    with pytest.raises(SingularGradient):
        sa.grad_Bbar(wide, np.array([far, small.center]))  # -radius > -BBAR_OFFSET


def _masked_Ru(cost, u):
    """The input penalty with every component masked: corner components
    (|u_i|/u_max >= 1 - 1e-12) take the limit, the others the closed form."""
    ub = cost.u_max
    z = np.abs(u) / ub
    inside = z < 1.0 - 1e-12
    ui, z = u * inside, z * inside
    inner = 2.0 * ub * cost.r_diag * (ui * np.arctanh(ui / ub) + 0.5 * ub * np.log1p(-z * z))
    return (inner + ~inside * (2.0 * ub * ub * cost.r_diag * np.log(2.0))).sum(-1)


def test_input_penalty_at_the_box_corner(scn, rows):
    # corner components (at u_max, and 5e-13 inside it) take the analytic
    # limit inside a batch too; a batch that mixes them with interior rows
    # (up to 2e-12 inside u_max) equals its rows one by one and the masked
    # form bit for bit, so the unmasked interior form is the masked one
    ub = scn.cost.u_max
    edge = ub * np.array([[1.0, 0.0], [-1.0, 0.2], [1.0 - 5e-13, -0.1], [0.2, 5e-13 - 1.0],
                          [1.0 - 2e-12, 0.0], [0.0, 2e-12 - 1.0], [0.0, 0.0]])
    u = np.concatenate([rows["u"][:50], edge])
    got = sa.input_penalty_Ru(scn.cost, u)
    assert np.all(np.isfinite(got))
    np.testing.assert_array_equal(got, row_by_row(lambda a: sa.input_penalty_Ru(scn.cost, a), u))
    np.testing.assert_array_equal(got, _masked_Ru(scn.cost, u))
    np.testing.assert_array_equal(sa.input_penalty_Ru(scn.cost, rows["u"]),
                                  _masked_Ru(scn.cost, rows["u"]))


def test_staf_kernels(scn, rows):
    cfg, bar, cost, sys_ = scn.staf, scn.barrier, scn.cost, scn.system
    y, x, Wc, Wa = rows["y"], rows["x"], rows["Wc"], rows["Wa"]
    assert_within_ulps(cfg.theta(x), row_by_row(cfg.theta, x))
    assert_within_ulps(sa.centers(cfg, x), row_by_row(lambda a: sa.centers(cfg, a), x))
    assert_within_ulps(sa.kernel_sigma(cfg, y, x),
                       row_by_row(lambda a, b: sa.kernel_sigma(cfg, a, b), y, x))
    assert_within_ulps(sa.value_hat(cfg, bar, Wc, y),
                       row_by_row(lambda w, a: sa.value_hat(cfg, bar, w, a), Wc, y))
    assert_within_ulps(sa.policy_star(cost, sys_, Wa[:, :2]),
                       row_by_row(lambda g: sa.policy_star(cost, sys_, g), Wa[:, :2]))
    assert_within_ulps(sa.policy_hat(cfg, bar, cost, sys_, Wa, y),
                       row_by_row(lambda w, a: sa.policy_hat(cfg, bar, cost, sys_, w, a), Wa, y))


@pytest.mark.parametrize("anchor", ["per-row", "shared"])
def test_bellman_at(scn, rows, anchor):
    # per-row: the post-processing (each row its own anchor and weights);
    # shared: the rhs (every row anchored at one state, one set of weights)
    args = (scn.system, scn.cost, scn.barrier, scn.staf, scn.gains)
    y, x, Wc, Wa = rows["y"], rows["x"], rows["Wc"], rows["Wa"]
    if anchor == "shared":
        x, Wc, Wa = x[0], Wc[0], Wa[0]
    batch = sa.bellman_at(y, x, Wc, Wa, *args)
    per_row = (np.broadcast_to(v, (R, v.shape[-1])) for v in (x, Wc, Wa))
    singles = [sa.bellman_at(*row, *args) for row in zip(y, *per_row)]
    assert batch.delta.shape == (R,)
    for name in ("u", "ydot", "state_cost", "omega", "omega_B", "rho", "delta", "Lambda"):
        assert_within_ulps(getattr(batch, name), [getattr(s, name) for s in singles])


def test_one_bad_row_fails_the_batch(scn, rows):
    bar, safe = scn.barrier, scn.safeset
    args = (scn.system, scn.cost, bar, scn.staf, scn.gains)
    y = rows["y"].copy()
    y[7] = safe.center + np.array([0.0, safe.radius])  # h = 0
    for fun in (sa.barrier_B, lambda b, a: sa.bellman_at(a, a, rows["Wc"], rows["Wa"], *args)):
        with pytest.raises(BoundaryViolation):
            fun(bar, y)
    sa.grad_Bbar(bar, y)  # h = 0 > -a: the bounded barrier is still defined
    y[7] = safe.center + np.array([0.0, safe.radius - 1.5 * BBAR_OFFSET])  # h = -1.5 BBAR_OFFSET
    for fun in (sa.barrier_B, sa.barrier_Bbar, sa.grad_Bbar):
        with pytest.raises(BoundaryViolation):
            fun(bar, y)


def test_postprocessing_rows_at_the_boundary(scn, rows):
    # every row's u is policy_hat at the row; rows with h <= H_MIN get
    # B = inf and delta = NaN, and on the others bellman_at's u agrees
    safe = scn.safeset
    xs = rows["y"].copy()
    bad = [3, 120]
    xs[3] = safe.center + np.array([safe.radius, 0.0])  # h = 0
    xs[120] = safe.center + np.array([0.0, -safe.radius - 0.5e-9])  # h = 5e-10
    Wcs, Was = rows["Wc"], rows["Wa"]
    hs, Bs = sa_sim._barrier_columns(safe, scn.barrier, xs)
    assert np.all(hs[bad] <= sa_cost.H_MIN)
    us, deltas = sa_sim._learner_columns(scn, xs, Wcs, Was, hs)
    good = np.setdiff1d(np.arange(R), bad)
    assert np.all(np.isinf(Bs[bad])) and np.all(np.isnan(deltas[bad]))
    assert np.all(np.isfinite(Bs[good])) and np.all(np.isfinite(deltas[good]))
    for i in bad:
        np.testing.assert_array_equal(
            us[i], sa.policy_hat(scn.staf, scn.barrier, scn.cost, scn.system, Was[i], xs[i]))
    on = sa.bellman_at(xs[good], xs[good], Wcs[good], Was[good], scn.system, scn.cost,
                       scn.barrier, scn.staf, scn.gains)
    np.testing.assert_array_equal(us[good], on.u)
    np.testing.assert_array_equal(deltas[good], on.delta)
    np.testing.assert_array_equal(Bs[good], sa.barrier_B(scn.barrier, xs[good]))

