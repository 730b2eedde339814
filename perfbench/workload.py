"""One benchmark workload in one fresh process.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR [--smoke]

Builds the workload's inputs from the seed, warms up, then repeats one
round of episodes until about S seconds of timed work are done, checking
every round's outputs outside the timed phase. Each piece of timed work
(one serial episode, or one sweep call) sits between two timings of the
host reference loop (hostref.py), a QP episode holds more timings inside
it, and the end-to-end figures are given in reference seconds. With --trace 1 odd rounds run with the tracer installed
and even rounds without, so the tracing overhead is measured in the same
process. Prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import safeadp as sa  # noqa: E402
import safeadp.cli as cli  # noqa: E402

import checks  # noqa: E402
import hostref  # noqa: E402
import tracing  # noqa: E402

# The problem handed to the program, stated here in full so that the
# checks read it from the benchmark rather than from the program's defaults.
GEOMETRY = {
    "system.kind": "single_integrator",
    "safeset.center": [2.0, 2.0],
    "safeset.radius": 1.0,
    "cost.Q": [1.0, 0.0, 0.0, 1.0],
    "cost.r_diag": [10.0, 10.0],
    "cost.u_max": 0.5,
    "qp.p": 2.0,
    "qp.dt": 0.01,
    "qp.alpha_scale": 1.0,
    "qp.gamma_scale": 10.0,
    "sim.t_final": 25.0,
    "sim.dt_out": 0.01,
}

# ADP initial states at |x0| = 4.6, 20 and 30 degrees below and 60 and 70
# degrees above the obstacle-origin line at 45 degrees. Every one of the
# 4 x SEED_POOL (state, gains.seed) pairs was run and passes the ADP checks.
# Every run uses all four states, since their costs differ by up to 10 %
# (3370-3800 bellman_at calls per episode); the seed picks gains.seed,
# which moves the cost by a few per cent.
ADP_STATES = ([4.323, 1.573], [3.984, 2.3], [2.3, 3.984], [1.573, 4.323])
SEED_POOL = 64
SEEDS_PER_STATE = 2
# QP baseline: the default start off the line and the collinear stall state.
QP_STATES = ([3.0, 3.5], [3.0, 3.0])
QP_HOLDS_CHECKED = 25
# Reference-loop timings taken at each boundary between pieces of timed
# work: about a tenth of an ADP episode or of a two-episode sweep call.
# A QP episode is referred to samples taken inside it (HoldSampler).
ADP_REF_SAMPLES = 2
QP_REF_SAMPLES = 2
SWEEP_REF_SAMPLES = 4


def _values(x0, seed=0, controller="adp", **extra):
    v = dict(GEOMETRY, **{"sim.x0": list(x0), "gains.seed": int(seed),
                          "sim.controller": controller})
    v.update(extra)
    return v


class EpisodeClock:
    """Times run_episode + summarize per episode at the names `cli` looks
    them up by, on whichever thread runs them."""

    def __init__(self):
        self.times = []
        self._local = threading.local()

    def install(self):
        """Wrap cli.run_episode and cli.summarize; tracing wraps outside."""
        run, summ = cli.run_episode, cli.summarize

        def run_episode(scn):
            t0 = perf_counter()
            record = run(scn)
            self._local.t = perf_counter() - t0
            return record

        def summarize(record, *args, **kwargs):
            t0 = perf_counter()
            rep = summ(record, *args, **kwargs)
            self.times.append(perf_counter() - t0 + self._local.t)
            return rep

        cli.run_episode, cli.summarize = run_episode, summarize


def _untraced(_name, fn, *args):
    return fn(*args)


def _repeat_errors(digests, path):
    """None the first time a file name is seen, so the caller checks it in
    full. Rounds repeat the same inputs, so later the bytes must match."""
    digest = hashlib.sha256(path.read_bytes()).digest()
    if digests.setdefault(path.name, digest) is digest:
        return None
    return [] if digests[path.name] == digest else ["differs from the same episode in round 1"]


class Round:
    """Outcome of one round: timed wall time, per-episode times, counts,
    each also in reference seconds."""

    def __init__(self):
        self.wall = 0.0
        self.ref_wall = 0.0
        self.episode_s = []
        self.episode_ref = []
        self.ref_loops = []
        self.attempted = 0
        self.failed = 0
        self.pending = []  # work for the checks, done after the timed phase

    def add(self, wall, episode_times, ref_loop):
        """One piece of timed work and the reference loop's time next to it."""
        self.wall += wall
        self.ref_wall += hostref.to_ref(wall, ref_loop)
        self.episode_s += episode_times
        self.episode_ref += [hostref.to_ref(t, ref_loop) for t in episode_times]
        self.ref_loops.append(ref_loop)


class HoldSampler:
    """Times the host reference loop inside a QP episode, before every
    EVERY-th call of the QP controller at the name run_qp_episode looks it
    up by, and keeps the time it took apart so that it can be taken back
    out. A QP episode runs for seconds, over which the host's speed moves
    too much for timings either side of it to stand for it."""

    EVERY = 100  # about 0.25 s of holds; the loop adds about 8 %

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._orig = None

    def install(self):
        self.samples, self.spent = [], 0.0
        orig = getattr(sa.sim, "qp_controller", None)
        if orig is None:  # then the timings either side are used
            return
        calls = itertools.count(1)

        def qp_controller(*args, **kwargs):
            if next(calls) % self.EVERY == 0:
                t0 = perf_counter()
                hostref.loop()
                self.samples.append(perf_counter() - t0)
                self.spent += self.samples[-1]
            return orig(*args, **kwargs)

        self._orig, sa.sim.qp_controller = orig, qp_controller

    def restore(self):
        if self._orig is not None:
            sa.sim.qp_controller, self._orig = self._orig, None


class SerialEpisodes:
    """Episodes run one after another in this process, each writing its
    CSV and summary like `safeadp run` does."""

    def __init__(self, plan, out, tag, ref_samples, sampler=None):
        self.plan = plan  # [(values, x0, checker)]
        self.out = out
        self.tag = tag
        self.ref_samples = ref_samples
        self.sampler = sampler
        self.digests = {}

    def warm(self):
        hostref.loop_s(self.ref_samples)
        for values, _, _ in self.plan[:1] + self.plan[-1:]:
            rec = sa.run_episode(sa.build_scenario(dict(values, **{"sim.t_final": 0.2})))
            cli.write_csv(rec, self.out / "warm.csv")

    @staticmethod
    def _episode(values, path):
        scn = sa.build_scenario(values)
        t0 = perf_counter()
        rec = sa.run_episode(scn)
        rep = sa.summarize(rec)
        episode_s = perf_counter() - t0
        cli.write_csv(rec, path)
        cli.write_summary(rep.as_dict(), path.with_suffix(".json"))
        return rec, episode_s

    def run_round(self, call=None):
        """One round; `call` is given when the tracer is installed, and then
        nothing is sampled inside the episodes, so that spans hold only
        the program's time."""
        rnd = Round()
        sampler = self.sampler if call is None else None
        ref_before = hostref.loop_s(self.ref_samples)
        for k, (values, x0, checker) in enumerate(self.plan):
            rnd.attempted += 1
            path = self.out / f"{self.tag}_{k:03d}.csv"
            if sampler:
                sampler.install()
            t0 = perf_counter()
            try:
                rec, episode_s = self._episode(values, path)
            except Exception as exc:  # an episode that raises counts as failed
                rec, episode_s = None, None
                print(f"episode {k} raised {exc!r}", file=sys.stderr)
            finally:
                if sampler:
                    sampler.restore()
            wall = perf_counter() - t0
            ref_after = hostref.loop_s(self.ref_samples)
            inside, spent = (sampler.samples, sampler.spent) if sampler else ([], 0.0)
            ref_loop = statistics.fmean(inside) if inside else 0.5 * (ref_before + ref_after)
            rnd.add(wall - spent, [] if rec is None else [episode_s - spent], ref_loop)
            ref_before = ref_after
            if rec is None:
                rnd.failed += 1
            elif rec.status != "OK":
                rnd.failed += 1
                print(f"episode {k} ended with status {rec.status}", file=sys.stderr)
            else:
                rnd.pending.append((rec, path, x0, checker))
        return rnd

    def check(self, rnd):
        errors = []
        for rec, path, x0, checker in rnd.pending:
            found = _repeat_errors(self.digests, path)
            if found is None:
                found = checks.readback_errors(rec, path)
                found += checker(checks.rows_from_csv(path), x0)
            errors += [f"{path.name}: {e}" for e in found]
        return errors


def adp_plan(seed):
    """Every initial state, with SEEDS_PER_STATE gains.seed values each."""
    rng = np.random.default_rng(seed)
    return [(x0, sorted(int(s) for s in rng.choice(SEED_POOL, SEEDS_PER_STATE, replace=False)))
            for x0 in ADP_STATES]


def adp_episodes(seed, out, smoke):
    plan = []
    prob = checks.Problem.from_values(GEOMETRY)
    for x0, seeds in adp_plan(seed):
        for s in seeds[: 1 if smoke else None]:
            plan.append((_values(x0, s), x0, lambda rows, x0: checks.adp_errors(rows, x0, prob)))
    return SerialEpisodes(plan, out, "adp", ADP_REF_SAMPLES)


def qp_episodes(seed, out, smoke):
    rng = np.random.default_rng(seed)
    extra = {"sim.t_final": 2.0} if smoke else {}
    prob = checks.Problem.from_values(dict(GEOMETRY, **extra))
    steps = round(prob.t_final / prob.dt)
    plan = []
    for x0 in QP_STATES:
        holds = sorted(int(i) for i in rng.choice(steps, QP_HOLDS_CHECKED, replace=False))
        plan.append((_values(x0, controller="qp", **extra), x0,
                     lambda rows, x0, holds=holds: checks.qp_errors(rows, x0, prob, holds)))
    return SerialEpisodes(plan, out, "qp", QP_REF_SAMPLES, HoldSampler())


def cli_threads():
    """The sweep's worker count, read as `safeadp.cli` reads it."""
    return min(max(1, int(os.environ.get("SAFEADP_THREADS", "4"))), SEEDS_PER_STATE)


class Sweep:
    """`safeadp sweep --sweep-key gains.seed`, one call per initial state,
    run in this process through the command-line entry point."""

    def __init__(self, seed, out, smoke):
        self.out = out
        self.prob = checks.Problem.from_values(GEOMETRY)
        rng = np.random.default_rng((seed, 1))
        self.plan = []
        for k, (x0, seeds) in enumerate(adp_plan(seed)):
            seeds = seeds[:1] if smoke else seeds
            cfg = out / f"sweep{k}.cfg"
            cfg.write_text("".join(f"{key} = {val}\n"
                                   for key, val in _values(x0).items() if key != "gains.seed"))
            sampled = int(rng.integers(len(seeds)))
            self.plan.append((cfg, x0, seeds, sampled))
        self.reference = {}
        self.digests = {}
        self.clock = EpisodeClock()
        self.clock.install()

    def _argv(self, k, cfg, seeds, t_final=None):
        argv = ["sweep", "--config", str(cfg), "--sweep-key", "gains.seed",
                "--sweep-values", ";".join(str(s) for s in seeds),
                "--out", str(self.out / f"sweep{k}.csv")]
        return argv + (["--t-final", str(t_final)] if t_final else [])

    def warm(self):
        hostref.loop_s(SWEEP_REF_SAMPLES, cli_threads())
        cfg, _, seeds, _ = self.plan[0]
        cli.main(self._argv(0, cfg, seeds[:1], t_final=0.2))
        # serial library runs the sampled sweep outputs must match byte for byte
        for k, (_, x0, seeds, sampled) in enumerate(self.plan):
            rec = sa.run_episode(sa.build_scenario(_values(x0, seeds[sampled])))
            path = self.out / f"reference{k}.csv"
            cli.write_csv(rec, path)
            self.reference[k] = (path.read_bytes(), checks.readback_errors(rec, path))
        self.clock.times.clear()

    def run_round(self, call=_untraced):
        rnd = Round()
        threads = cli_threads()
        ref_before = hostref.loop_s(SWEEP_REF_SAMPLES, threads)
        for k, (cfg, _, seeds, _) in enumerate(self.plan):
            rnd.attempted += len(seeds)
            t0 = perf_counter()
            try:
                code = call("cli.sweep", cli.main, self._argv(k, cfg, seeds))
            except Exception as exc:
                code = repr(exc)
            wall = perf_counter() - t0
            ref_after = hostref.loop_s(SWEEP_REF_SAMPLES, threads)
            rnd.add(wall, list(self.clock.times), 0.5 * (ref_before + ref_after))
            ref_before = ref_after
            self.clock.times.clear()
            if code != 0:
                rnd.failed += len(seeds)
                print(f"sweep {k} ended with {code}", file=sys.stderr)
            else:
                rnd.pending.append(k)
        return rnd

    def check(self, rnd):
        errors = []
        for k in rnd.pending:
            _, x0, seeds, sampled = self.plan[k]
            ref_bytes, ref_errors = self.reference[k]
            errors += ref_errors
            for idx, seed in enumerate(seeds):
                path = self.out / f"sweep{k}_{idx:03d}.csv"
                found = _repeat_errors(self.digests, path)
                if found is None:
                    found = checks.adp_errors(checks.rows_from_csv(path), x0, self.prob)
                summary = json.loads(path.with_name(f"sweep{k}_{idx:03d}_summary.json").read_text())
                if summary.get("sweep_value") != seed or summary.get("status") != "OK":
                    found.append(f"summary reads seed {summary.get('sweep_value')} "
                                 f"status {summary.get('status')}")
                if idx == sampled and path.read_bytes() != ref_bytes:
                    found.append("differs from the serial library run of the same seed")
                errors += [f"{path.name}: {e}" for e in found]
        return errors


WORKLOADS = {
    "adp-episodes": adp_episodes,
    "qp-episodes": qp_episodes,
    "adp-sweep": Sweep,
}


SELF_TIMES = ("config.build_scenario", "sim.run_episode", "sim.summarize",
              "integrate.integrate_adaptive", "integrate.sample", "critic.bellman_at",
              "staf.policy_hat", "staf.value_hat", "qpsolve.qp_controller",
              "qpsolve.build_qp", "qpsolve.solve_qp", "qpsolve.linprog",
              "cli.write_csv", "cli.write_summary")


def layer_metrics(tracer, episodes, sweep_calls, sweep_episode_s):
    """Per-layer figures from the traced rounds, per episode unless the
    unit says otherwise."""
    agg, counts = tracer.totals()
    E = max(episodes, 1)

    def calls(name):
        return agg[name][0] if name in agg else 0

    def total(name):
        return agg[name][1] if name in agg else 0.0

    per_ep = "count/episode"
    s_ep = "s/episode"
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for span, key in (("qpsolve.solve_qp", "qpsolve.solve_qp"), ("qpsolve.linprog", "qpsolve.linprog"),
                      ("critic.bellman_at", "critic.bellman_at"), ("staf.policy_hat", "staf.policy_hat"),
                      ("staf.value_hat", "staf.value_hat"),
                      ("integrate.integrate_adaptive", "integrate.integrate_adaptive"),
                      ("cli.write_csv", "cli.write_csv")):
        put(f"{key}.calls", calls(span) / E, per_ep)
        put(f"{key}_s", total(span) / E, s_ep)
    put("qpsolve.solve_qp.iterations", counts["qpsolve.solve_qp.iterations"] / E, per_ep)
    put("qpsolve.build_qp_s", total("qpsolve.build_qp") / E, s_ep)
    solves = calls("qpsolve.solve_qp")
    put("qpsolve.phase1_per_solve", calls("qpsolve.linprog") / solves if solves else 0.0,
        "linprog/solve")
    put("cost.barrier_B_or_inf.calls", counts["cost.barrier_B_or_inf.calls"] / E, per_ep)
    put("integrate.sample_s", total("integrate.sample") / E, s_ep)
    put("sim.postprocess_s",
        (total("sim.run_episode") - total("integrate.integrate_adaptive")) / E, s_ep)
    accepted = counts["integrate.accepted_steps"]
    put("integrate.rhs_evals", counts["integrate.rhs_evals"] / E, per_ep)
    put("integrate.accepted_steps", accepted / E, per_ep)
    put("integrate.rejected_steps", (counts["integrate.attempted_steps"] - accepted) / E, per_ep)
    put("critic.sample_extrapolation_points.calls",
        counts["critic.sample_extrapolation_points.calls"] / E, per_ep)
    put("cli.write_csv.bytes", counts["cli.write_csv.bytes"] / E, "B/episode")
    put("cli.write_summary_s", total("cli.write_summary") / E, s_ep)
    sweep_s = total("cli.sweep")
    put("cli.sweep_s", sweep_s / sweep_calls if sweep_calls else 0.0, "s/sweep")
    put("cli.sweep.overlap", sweep_episode_s / sweep_s if sweep_s else 0.0, "ratio")
    for span in SELF_TIMES:
        put(f"{span}.self_s", agg[span][2] / E if span in agg else 0.0, s_ep)
    return m


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    wl = WORKLOADS[args.workload](args.seed, out, args.smoke)
    wl.warm()

    tracer = tracing.Tracer()
    is_sweep = isinstance(wl, Sweep)
    timed = ref_timed = 0.0
    ref_loops = []
    rounds = 0
    attempted = failed = 0
    errors = []
    ep_times = {False: [], True: []}
    ep_ref = []  # untraced episode times in reference seconds
    traced_episodes = sweep_calls = 0
    sweep_episode_s = 0.0
    min_rounds = 2 if args.trace else 1
    while True:
        traced = bool(args.trace) and rounds % 2 == 1
        if traced:
            tracing.install(tracer)
        try:
            rnd = wl.run_round(tracer.call) if traced else wl.run_round()
        finally:
            tracer.restore()
        ep_times[traced] += rnd.episode_s
        if not traced:
            ep_ref += rnd.episode_ref
        ref_loops += rnd.ref_loops
        if traced:
            traced_episodes += rnd.attempted - rnd.failed
            if is_sweep:
                sweep_calls += len(wl.plan)
                sweep_episode_s += sum(rnd.episode_s)
        timed += rnd.wall
        ref_timed += rnd.ref_wall
        attempted += rnd.attempted
        failed += rnd.failed
        errors += wl.check(rnd)
        rounds += 1
        # stop at the whole number of rounds nearest to --seconds
        if rounds >= min_rounds and (args.smoke or timed >= args.seconds - 0.5 * timed / rounds):
            break

    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "rounds": rounds, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "ref_loop_s": statistics.median(ref_loops)}
    if args.trace:
        metrics = layer_metrics(tracer, traced_episodes, sweep_calls, sweep_episode_s)
        over = (statistics.median(ep_times[True]) / statistics.median(ep_times[False]) - 1.0
                if ep_times[True] and ep_times[False] else 0.0)
        metrics["trace.overhead"] = {"value": over, "unit": "ratio"}
        metrics["host.ref_loop_s"] = {"value": result["ref_loop_s"], "unit": "s"}
        tracer.dump(str(out.parent / f"trace-{args.workload}-seed{args.seed}.jsonl"))
        result["metrics"] = metrics
    else:
        # reference seconds (see hostref.py); the wall figures go to stderr
        result["episode_s"] = statistics.median(ep_ref) if ep_ref else 0.0
        result["episodes_per_s"] = (attempted - failed) / ref_timed if ref_timed else 0.0
        result["episode_wall_s"] = statistics.median(ep_times[False]) if ep_times[False] else 0.0
        result["episodes_per_wall_s"] = (attempted - failed) / timed if timed else 0.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
