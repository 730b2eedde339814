"""End-to-end acceptance gate.

Each test prints one `[PASS]`/`[FAIL]` line for its criterion before
asserting, so a plain `pytest -s tests/test_acceptance.py` reads as a
checklist.
"""

import time

import numpy as np
import pytest

import safeadp as sa
from safeadp import oracles
from safeadp.cli import write_csv
from safeadp.oracles import (central_difference, enumerate_qp, quadrature_Ru,
                             random_qp, selftest_gradients)


def _report(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_adp_safety_and_convergence(adp_record, default_scenario):
    rep = sa.summarize(adp_record)
    x0_norm = float(np.linalg.norm(default_scenario.sim.x0))
    ok = (adp_record.status == "OK"
          and rep.min_h > 0.0
          and rep.terminal_x_norm <= 0.1 * x0_norm
          and rep.wall_clock_s < 10.0)
    _report(1, "ADP safety + convergence", ok,
            f"status={adp_record.status} min_h={rep.min_h:.4g} "
            f"terminal={rep.terminal_x_norm:.4g} (limit {0.1 * x0_norm:.4g}) "
            f"wall={rep.wall_clock_s:.2f}s")


def test_criterion_2_qp_baseline(adp_record, qp_record, qp_stall_record):
    adp_term = float(np.linalg.norm(adp_record.x[-1]))
    qp_term = float(np.linalg.norm(qp_record.x[-1]))
    stall_term = float(np.linalg.norm(qp_stall_record.x[-1]))
    ok = (np.min(qp_record.h) >= -1e-6
          and qp_term > adp_term
          and np.min(qp_stall_record.h) >= -1e-6
          and stall_term > 0.5)
    _report(2, "QP safety + non-convergence", ok,
            f"qp min_h={np.min(qp_record.h):.4g} qp terminal={qp_term:.4g} > "
            f"adp terminal={adp_term:.4g}; stall terminal={stall_term:.4g} > 0.5")


def test_criterion_3_input_bounds(adp_record, qp_record):
    adp_max = float(np.max(np.abs(adp_record.u)))
    qp_max = float(np.max(np.abs(qp_record.u)))
    ok = adp_max < 0.5 and qp_max <= 0.5 + 1e-9
    _report(3, "input box", ok,
            f"adp max|u|={adp_max:.6g} < 0.5; qp max|u|={qp_max:.6g} <= 0.5+1e-9")


def test_criterion_4_bellman_error_decreases(adp_record):
    rep = sa.summarize(adp_record)
    ok = rep.mean_abs_delta_late <= 0.5 * rep.mean_abs_delta_early
    _report(4, "Bellman error decay", ok,
            f"late mean|delta|={rep.mean_abs_delta_late:.4g} <= "
            f"0.5 * early={0.5 * rep.mean_abs_delta_early:.4g}")


def test_criterion_5_qp_oracle():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst_v = 0.0
    worst_obj = 0.0
    for _ in range(500):
        prob = random_qp(rng)
        sol = sa.solve_qp(prob)
        ref = enumerate_qp(prob)
        assert ref is not None
        worst_v = max(worst_v, float(np.linalg.norm(sol.v_star - ref[0], np.inf)))
        worst_obj = max(worst_obj, abs(prob.objective(sol.v_star) - ref[2]))
    elapsed = time.perf_counter() - t0
    ok = worst_v <= 1e-6 and worst_obj <= 1e-8 and elapsed < 5.0
    _report(5, "QP enumeration oracle", ok,
            f"500 instances, max|dv|={worst_v:.3e}, max|dobj|={worst_obj:.3e}, "
            f"{elapsed:.2f}s")


def test_criterion_6_input_penalty_quadrature(cost_spec):
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        u = rng.uniform(-0.4999, 0.4999, size=2)
        exact = sa.input_penalty_Ru(cost_spec, u)
        ref = quadrature_Ru(cost_spec, u)
        worst = max(worst, abs(exact - ref) / max(abs(ref), 1e-12))
    corner = sa.input_penalty_Ru(cost_spec, np.array([0.5, 0.5]))
    corner_ref = 2 * 2.0 * 0.5 ** 2 * 10.0 * np.log(2.0)
    corner_err = abs(corner - corner_ref)
    ok = worst <= 1e-8 and corner_err <= 1e-6
    _report(6, "input penalty vs quadrature", ok,
            f"1000 points, max rel err={worst:.3e}; corner err={corner_err:.3e}")


def test_criterion_7_gradient_oracles():
    # the gate's strictness: 100 points per gradient from seed 0, 1e-5 relative error
    assert (oracles.SELFTEST_SEED, oracles.GRAD_COUNT, oracles.GRAD_TOL) == (0, 100, 1e-5)
    results = selftest_gradients()
    ok = all(passed for _n, passed, _d in results)
    detail = "; ".join(f"{n}: {d}" for n, _p, d in results)
    _report(7, "gradient oracles", ok, detail)


def test_criterion_8_gamma_contract(adp_record):
    # the run ends GAIN_INDEFINITE at the first accepted step whose Gamma
    # is not positive definite, so an OK run kept it SPD at every step
    spd_ok = bool(np.all(adp_record.min_eig_gamma > 0.0) and adp_record.status == "OK")
    scn = sa.build_scenario(sim__t_final=1.0, gains__kc1=0.0, gains__kc2=0.0)
    rec = sa.run_adp_episode(scn)
    expected = scn.gains.gamma0 * np.exp(scn.gains.beta * 1.0)
    rel = abs(rec.min_eig_gamma[-1] - expected) / expected
    ok = spd_ok and rel <= 1e-6
    _report(8, "gain matrix contract", ok,
            f"SPD along run (status {adp_record.status}, "
            f"min sampled eig {adp_record.min_eig_gamma.min():.4g}); "
            f"closed-form growth rel err={rel:.3e}")


def test_criterion_9_critic_gradient(default_scenario):
    scn = default_scenario
    gains, cfg, bar, cost = scn.gains, scn.staf, scn.barrier, scn.cost
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(0.3, 1.5, size=2) * np.array([-1.0, 1.0])
        Wc, Wa = rng.normal(size=(2, 3))
        Gamma = np.eye(3)
        pts = sa.sample_extrapolation_points(rng, x, gains.N, cfg, scn.safeset)
        rows = sa.bellman_at(np.vstack([x, pts]), x, Wc, Wa, scn.system, cost, bar, cfg, gains)
        rhs = sa.critic_rhs(gains, Gamma, rows)
        on = sa.bellman_at(x, x, Wc, Wa, scn.system, cost, bar, cfg, gains)
        ext = [sa.bellman_at(p, x, Wc, Wa, scn.system, cost, bar, cfg, gains)
               for p in pts]

        def E(w):
            # omega and rho frozen at the evaluation point; delta is
            # affine in the critic weights with gradient omega
            total = gains.kc1 * (float(w @ on.omega) + on.delta
                                 - float(Wc @ on.omega)) ** 2 / (2.0 * on.rho ** 2)
            for s in ext:
                total += (gains.kc2 / gains.N
                          * (float(w @ s.omega) + s.delta
                             - float(Wc @ s.omega)) ** 2 / (2.0 * s.rho ** 2))
            return total

        ref = -Gamma @ central_difference(E, Wc)
        worst = max(worst, np.linalg.norm(rhs - ref) / max(np.linalg.norm(ref), 1e-12))
    ok = worst <= 1e-6
    _report(9, "critic update is a gradient", ok,
            f"20 random points, max rel err={worst:.3e}")


def test_criterion_10_determinism(tmp_path):
    outs = []
    for i in range(2):
        scn = sa.build_scenario(sim__t_final=5.0)
        rec = sa.run_adp_episode(scn)
        path = tmp_path / f"det_{i}.csv"
        write_csv(rec, path)
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1]
    _report(10, "byte-identical determinism", ok,
            f"two 5 s runs, {len(outs[0])} bytes each, identical={ok}")
