"""Spans and counts around calls into the program's layers.

The tracer replaces a function at the name its caller looks it up by (a
module global or a class attribute) with a wrapper that records a span:
name, start, end and the enclosing span on the same thread. Self time is
the span's duration minus the time its child spans cover. Spans are kept
in memory, per thread, up to SPAN_CAP each, and written out by `dump`;
call counts, total and self times cover every call regardless of the cap.
`restore` puts the original functions back.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

SPAN_CAP = 20_000


class _ThreadState:
    def __init__(self, tid):
        self.tid = tid
        self.spans = []          # (name, start, end, parent index or -1)
        self.stack = []          # open span indices
        self.child_time = []     # child time covered, per open span
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total, self
        self.counts = defaultdict(int)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._patched = []
        self.missing = []

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def count(self, name, k=1):
        self._state().counts[name] += k

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        st = self._state()
        parent = st.stack[-1] if st.stack else -1
        idx = len(st.spans)
        keep = idx < SPAN_CAP
        if keep:
            st.spans.append(None)
        st.stack.append(idx)
        st.child_time.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            st.stack.pop()
            covered = st.child_time.pop()
            dur = t1 - t0
            if st.child_time:
                st.child_time[-1] += dur
            if keep:
                st.spans[idx] = (name, t0, t1, parent)
            a = st.agg[name]
            a[0] += 1
            a[1] += dur
            a[2] += dur - covered

    def wrap(self, target, attr, make):
        """Replace `target.attr` (target "module" or "module:Class") by
        make(original); a missing target is noted in `missing`."""
        module, _, cls = target.partition(":")
        try:
            owner = importlib.import_module(module)
        except ModuleNotFoundError:
            owner = None
        if cls:
            owner = getattr(owner, cls, None)
        orig = vars(owner).get(attr) if cls and owner else getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{target}.{attr}")
            return
        setattr(owner, attr, make(orig))
        self._patched.append((owner, attr, orig))

    def span(self, target, attr, name, after=None):
        """Wrap `target.attr` in a span; after(result, args, kwargs) may
        record counts from the call."""
        def make(orig):
            def wrapper(*args, **kwargs):
                result = self.call(name, orig, *args, **kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result
            return wrapper
        self.wrap(target, attr, make)

    def counter(self, target, attr, name):
        """Count calls to `target.attr` without a span."""
        def make(orig):
            def wrapper(*args, **kwargs):
                self.count(name)
                return orig(*args, **kwargs)
            return wrapper
        self.wrap(target, attr, make)

    def restore(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def totals(self):
        """(name -> [calls, total_s, self_s], name -> count) over all threads."""
        agg = defaultdict(lambda: [0, 0.0, 0.0])
        counts = defaultdict(int)
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (n, tot, own) in st.agg.items():
                a = agg[name]
                a[0] += n
                a[1] += tot
                a[2] += own
            for name, n in st.counts.items():
                counts[name] += n
        return agg, counts

    def dump(self, path):
        """Write the kept spans, one JSON object per thread per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with self._lock:
            states = list(self._states)
        with open(path, "w", encoding="utf-8") as fh:
            for st in states:
                fh.write(json.dumps({"thread": st.tid, "fields": ["name", "start", "end", "parent"],
                                     "spans": [s for s in st.spans if s is not None]}))
                fh.write("\n")


def install(tracer):
    """Spans and counts at the layer boundaries the benchmark reports."""
    tracer.missing.clear()
    def count_steps(result, _args, _kwargs):
        tracer.count("integrate.accepted_steps", len(result[1].ts) - 1)

    def make_integrate(orig):
        def integrate_adaptive(rhs, *args, **kwargs):
            def counted_rhs(t, y):
                tracer.count("integrate.rhs_evals")
                return rhs(t, y)
            result = tracer.call("integrate.integrate_adaptive", orig, counted_rhs,
                                 *args, **kwargs)
            count_steps(result, args, kwargs)
            return result
        return integrate_adaptive

    def count_iterations(sol, _args, _kwargs):
        tracer.count("qpsolve.solve_qp.iterations", sol.iterations)

    def count_bytes(_result, args, kwargs):
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        tracer.count("cli.write_csv.bytes", os.path.getsize(path))

    for mod in ("safeadp", "safeadp.cli"):
        tracer.span(mod, "build_scenario", "config.build_scenario")
        tracer.span(mod, "run_episode", "sim.run_episode")
        tracer.span(mod, "summarize", "sim.summarize")
    tracer.span("safeadp.cli", "write_csv", "cli.write_csv", after=count_bytes)
    tracer.span("safeadp.cli", "write_summary", "cli.write_summary")
    tracer.wrap("safeadp.sim", "integrate_adaptive", make_integrate)
    tracer.counter("safeadp.integrate", "dp54_step", "integrate.attempted_steps")
    tracer.span("safeadp.integrate:StepRecord", "sample", "integrate.sample")
    tracer.span("safeadp.sim", "bellman_at", "critic.bellman_at")
    tracer.counter("safeadp.sim", "sample_extrapolation_points",
                   "critic.sample_extrapolation_points.calls")
    for mod in ("safeadp.sim", "safeadp.critic"):
        tracer.span(mod, "policy_hat", "staf.policy_hat")
    tracer.span("safeadp.sim", "value_hat", "staf.value_hat")
    tracer.counter("safeadp.sim", "barrier_B_or_inf", "cost.barrier_B_or_inf.calls")
    tracer.span("safeadp.sim", "qp_controller", "qpsolve.qp_controller")
    tracer.span("safeadp.qpsolve", "build_qp", "qpsolve.build_qp")
    tracer.span("safeadp.qpsolve", "solve_qp", "qpsolve.solve_qp", after=count_iterations)
    tracer.span("safeadp.qpsolve", "linprog", "qpsolve.linprog")
    if tracer.missing:
        print("trace: not found, reported as 0: " + ", ".join(tracer.missing), file=sys.stderr)
