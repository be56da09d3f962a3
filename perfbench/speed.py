"""The machine's speed during a run, measured with a fixed reference task.

The benchmark runs on shared machines whose speed drifts by tens of percent
within a minute.  Between requests, the benchmark therefore runs
``reference_work``: a fixed, standard-library-only loop of exact rational
arithmetic, dictionary and sorting work that no change to ``outerstring``
can touch.  A timing is reported in *reference seconds*: wall seconds times
``REF_S`` over the trimmed mean reference time of the samples within
``WINDOW_S`` of it, that is, the time the work would have taken on a
machine where one reference run takes ``REF_S`` seconds.  One reference run
is short and noisy; a trimmed mean over a window follows the drift without
the noise.

The command line workload runs every request as a child process, whose
speed the parent's own loop does not follow.  Its reference run is
therefore a child process too: a fresh interpreter that runs
``reference_work`` once (this file run as a script), timed from start to
exit.

The garbage collector is off during a reference run, so a heap that the
program under test has grown does not slow the reference and hide itself.
Run as a script, this file does one reference run and exits.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# Median wall time of one in-process reference run, and of one reference
# child process, on the 2-vCPU x86 VM where the benchmark was defined.  They
# only set the scale of reported times.
REF_S = 0.0135
CHILD_REF_S = 0.065

# Requests run back to back until this much wall time has passed since the
# last reference run; then the reference runs again.  A reference child
# process costs several times an in-process run, so it runs less often.
EVERY_S = 0.2
CHILD_EVERY_S = 0.5

# Reference samples within this many seconds of a timing's midpoint set its
# scale; at least MIN_SAMPLES samples, the nearest ones, are used.  Their
# mean after dropping the highest and lowest fifth follows the machine's
# speed best: on runs of every workload it gave the smallest seed-to-seed
# spreads among means, medians and trimmed means over 0.3, 1 and 3 s.
WINDOW_S = 1.0
MIN_SAMPLES = 5


def reference_work():
    s = Fraction(0)
    table = {}
    for i in range(1, 800):
        f = Fraction(i, i + 7) * Fraction(3, i + 1) - Fraction(i % 13, 5)
        s += f
        table[(i % 97, f.numerator % 31)] = f
    return s, sorted(table.items(), key=lambda kv: (kv[1], kv[0]))


def child_reference_s() -> float:
    """Wall time of one reference child process, from start to exit."""
    t = time.perf_counter()
    subprocess.run([sys.executable, __file__], check=True)
    return time.perf_counter() - t


def reference_s() -> float:
    """Wall time of one reference run."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        reference_work()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def trimmed_mean(values) -> float:
    """Mean after dropping the highest and the lowest fifth."""
    xs = sorted(values)
    k = len(xs) // 5
    return statistics.mean(xs[k:len(xs) - k])


class Clock:
    """The reference samples of one run.  Timings are taken in wall seconds
    as ``(start, wall)`` and converted to reference seconds once the run
    has ended, when the samples on both sides of each are known."""

    def __init__(self, in_process: bool = True):
        self.nominal = REF_S if in_process else CHILD_REF_S
        self._reference = reference_s if in_process else child_reference_s
        self.every = EVERY_S if in_process else CHILD_EVERY_S
        self.times: list[float] = []      # midpoint of each reference run
        self.refs: list[float] = []       # its wall time
        self._last = float("-inf")

    def sample(self) -> None:
        t = time.perf_counter()
        r = self._reference()
        self.times.append(t + r / 2)
        self.refs.append(r)
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        """Sample when ``every`` seconds have passed since the last sample."""
        if time.perf_counter() - self._last >= self.every:
            self.sample()

    def timed(self, fn):
        """Run ``fn()`` between reference samples; return its result and
        its ``(start, wall)``."""
        self.sample()
        t = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t
        self.sample()
        return result, (t, wall)

    def factor(self, t: float) -> float:
        """Reference seconds per wall second at time ``t``."""
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            near = sorted(range(len(self.refs)), key=lambda j: abs(self.times[j] - t))
            window = [self.refs[j] for j in near[:MIN_SAMPLES]]
        else:
            window = self.refs[lo:hi]
        return self.nominal / trimmed_mean(window)

    def recent_factor(self) -> float:
        """Reference seconds per wall second over the latest samples."""
        if not self.refs:
            return 1.0
        return self.nominal / statistics.median(self.refs[-MIN_SAMPLES:])

    def ref_s(self, span) -> float:
        """A ``(start, wall)`` timing in reference seconds."""
        start, wall = span
        return wall * self.factor(start + wall / 2)


if __name__ == "__main__":
    reference_s()
