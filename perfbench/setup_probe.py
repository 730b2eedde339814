"""Set-up probe, run in a fresh interpreter.

    python3 perfbench/setup_probe.py SRC_DIR      # the program
    python3 perfbench/setup_probe.py --reference  # the host reference

With SRC_DIR it times `import safeadp` and the first `build_scenario` and
prints both in seconds on one line. With --reference it times the import
of a fixed set of standard-library modules that the program does not
import itself, and prints that: the reference that set-up time is scaled
by (hostref.py).
"""

import time

t0 = time.perf_counter()
import sys  # noqa: E402  (already loaded by the interpreter)

if sys.argv[1] == "--reference":
    import asyncio, decimal, email.parser, http.client, logging, unittest, xml.dom.minidom  # noqa: E401,E402,F401

    print(repr(time.perf_counter() - t0))
    sys.exit(0)

sys.path.insert(0, sys.argv[1])
import safeadp  # noqa: E402

t1 = time.perf_counter()
safeadp.build_scenario()
t2 = time.perf_counter()
print(f"{t1 - t0!r} {t2 - t1!r}")
