"""Host-speed reference for the benchmark's end-to-end timings.

The benchmark shares its cores with other tenants, whose load changes the
speed of the host by tens of per cent within a minute. A fixed loop of the
same kind of work as the program's (small NumPy products and Python float
arithmetic) is timed next to each piece of timed work, in the same process,
and the work's wall time is scaled by REF_S over the loop's time per run:

    reference seconds = wall seconds * REF_S / loop seconds

On a host running at the reference speed the two are equal; when the host
slows, the loop slows with the program and the factor takes that out. A
change to the program does not touch the loop, so it shows in full. Work
spread over threads (the sweep) is referred to the loop run on as many
threads at once, so that the cost of passing the interpreter lock between
them, which the host's load also moves, is in the reference as well.

Set-up time is mostly loading modules and shared libraries, which the
host's load moves differently from arithmetic. It is scaled the same way
by REF_IMPORT_S over the time a fresh interpreter takes to import a fixed
set of standard-library modules (setup_probe.py --reference), timed just
before each start of the program.
"""

from __future__ import annotations

import statistics
import threading
from time import perf_counter

import numpy as np

# A typical time of one loop() on the reference host (2 cores, Python 3.11,
# NumPy 2.4; 15-26 ms as its load changes). It only sets the scale of the
# reported figures and must stay fixed for them to compare across commits.
REF_S = 0.020
# A typical time of the reference imports on the same host (55-90 ms).
REF_IMPORT_S = 0.070
ITERATIONS = 8000

_M = np.array([[0.9, 0.05, 0.0], [0.0, 0.9, 0.05], [0.05, 0.0, 0.9]])


def loop():
    v = np.array([0.3, -0.2, 0.1])
    acc = 0.0
    for i in range(ITERATIONS):
        v = _M @ v + 0.01
        acc = acc * 0.999 + float(v[i % 3]) * 1.0001
    return acc


def loop_s(samples=1, threads=1):
    """Median over `samples` of the wall time per loop() when `threads`
    threads each run one loop() at once."""
    times = []
    for _ in range(samples):
        workers = [threading.Thread(target=loop) for _ in range(threads - 1)]
        t0 = perf_counter()
        for w in workers:
            w.start()
        loop()
        for w in workers:
            w.join()
        times.append((perf_counter() - t0) / threads)
    return statistics.median(times)


def to_ref(wall_s, measured_ref_s, ref_s=REF_S):
    """Wall seconds to reference seconds, given the reference's time
    measured next to them and its fixed reference time."""
    return wall_s * ref_s / measured_ref_s
