"""Machine speed, measured next to the timed work.

The CPU this benchmark was tuned on changes speed by 15-30 % over
seconds to minutes, for reasons outside the process (two vCPUs shared
with other tenants; see the README).  Wall time alone then moves more between two
sets of runs than the changes the benchmark should detect.  So a fixed
pure-Python routine that never touches mcdsolve is timed between
operations, and each timed interval is scaled by REF_S over the
routine's time around it: the result is in reference seconds, the time
the work would take on a machine where `calibrate()` takes REF_S.  The
routine is made of the same kind of interpreter work as the solver
(method calls, tuple comparisons, set building), and it is part of the
benchmark, so no change to the program can move it.
"""

import random
import statistics
import time
from array import array

# calibrate() median on the 2-vCPU Xeon (2.1 GHz) tuning machine, Python 3.11
REF_S = 0.0013

_rng = random.Random(20160910)
_POINTS = [(_rng.random(), _rng.random()) for _ in range(96)]


class _Order:
    def leq(self, a, b):
        return a[0] <= b[0] and a[1] <= b[1]


def _routine():
    order = _Order()
    # every pair is compared: no short cut, so the work is fixed
    kept = [p for p in _POINTS if sum(order.leq(q, p) for q in _POINTS) == 1]
    return frozenset(kept)


def calibrate(repeats: int = 9) -> float:
    """Median seconds of the fixed routine over a few repeats."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _routine()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class ScaledClock:
    """Collects timed intervals and scales them to reference seconds.

    A calibration runs before the first interval and again whenever
    `every` seconds of intervals have been added since the last one, so
    always between operations.  The intervals in between are scaled by
    the mean of the two calibrations around them.
    """

    def __init__(self, every: float = 0.3):
        self.every = every
        self.last = calibrate()
        self.pending = []
        self.since = 0.0
        # compact, so that a long run of tiny operations does not inflate
        # the peak memory the benchmark reports
        self.raw = array("d")
        self.scaled = array("d")

    def add(self, seconds: float):
        self.pending.append(seconds)
        self.since += seconds
        if self.since >= self.every:
            self.flush()

    def flush(self):
        if not self.pending:
            return
        cal = calibrate()
        factor = REF_S / ((self.last + cal) / 2)
        self.raw.extend(self.pending)
        self.scaled.extend(s * factor for s in self.pending)
        self.last = cal
        self.pending = []
        self.since = 0.0
