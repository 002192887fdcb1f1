"""Time one fresh interpreter's set-up for a workload.

    python3 bench/setup_probe.py WORKLOAD SEED

Prints the set-up time in reference seconds and in wall seconds: the
time to import mcdsolve (with the benchmark's workload module) and build
the workload, that is parse and elaborate its models, or for
finite_loops generate its instances and build their DP trees.
Interpreter start-up itself is not included.  The machine's speed is
calibrated just before and just after (see speed.py).
"""

import pathlib
import sys
import time

import speed

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

before = speed.calibrate()
start = time.perf_counter()
import workloads  # noqa: E402  (the import is part of what is timed)

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
wall = time.perf_counter() - start
after = speed.calibrate()
print(repr(wall * speed.REF_S / ((before + after) / 2)), repr(wall))
