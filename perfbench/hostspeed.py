"""Host speed, measured with a fixed reference task through a run.

On a shared host the same pure-Python work can take 50 % longer from one
minute to the next, and its speed moves within seconds.  The benchmark
measures that drift with a reference task that does not touch the library:
it composes a fixed permutation of 240 points 75 times, the kind of tuple
work the library does, and runs an integer loop of 20000 steps, with the
cyclic garbage collector off so that the size of the library's heap does not
change its cost.  Under the host's drift the mix of the two follows the
library's speed more closely than either part alone.

While a ``HostClock`` is entered, an interval timer runs the reference task
every ``PERIOD_S`` seconds of wall time, in the benchmark's own thread, also
in the middle of a query.  ``HostClock.stolen`` sums the time the tasks took,
so that the benchmark can leave it out of the query that they interrupted.
Work done in child processes is measured against a reference child instead:
a fresh interpreter that imports a few standard modules and runs the
reference task once, so that process start-up, which the in-process task does
not exercise, drifts with the host in both.  The timer pauses while a child
runs, and a reference child runs after every ``CHILD_PERIOD_S`` seconds of
child time.

``HostClock.factor(start, end)`` is the median time of the reference tasks
run within ``WINDOW_S`` of an interval (or of the ``MIN_SAMPLES`` nearest to
it, if fewer ran there), over ``NOMINAL_S``, the reference time of the host
the baseline was measured on; ``factor(start, end, child=True)`` the same for
reference children over ``CHILD_NOMINAL_S``.  The benchmark divides each
query's time by the factor around it (and multiplies rates by it), so that
times read as on that host and move with the program, not with the host.
The raw figures and the run's factor are printed beside them.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

NOMINAL_S = 0.0025  # median reference time on the baseline host
CHILD_NOMINAL_S = 0.08  # median reference child time on the baseline host
CHILD_PERIOD_S = 0.5
CHILD_CODE = (
    "import argparse, dataclasses, fractions, json, sys\n"
    f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
    "import hostspeed\n"
    "hostspeed.reference_seconds()\n"
)
POINTS = 240
ROUNDS = 75
STEPS = 20000
PERIOD_S = 0.25
WINDOW_S = 2.5
MIN_SAMPLES = 10

_PERM = list(range(POINTS))
random.Random(0).shuffle(_PERM)
_PERM = tuple(_PERM)


def reference_seconds() -> float:
    """Wall time of one reference task."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        p, seen = tuple(range(POINTS)), {}
        for k in range(ROUNDS):
            p = tuple(_PERM[x] for x in p)
            seen[p[:3]] = k
        acc = 0
        for i in range(STEPS):
            acc += i * i % 7
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class HostClock:
    """Reference samples taken through one run, with the time each ended."""

    def __init__(self):
        self.samples = []  # (end, seconds)
        self.child_samples = []
        self.child_due = 0.0
        self.stolen = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        took = reference_seconds()
        end = time.perf_counter()
        self.samples.append((end, took))
        self.stolen += end - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextmanager
    def child(self):
        """Pause the timer while a child process runs, then run the reference
        children that its time has made due."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.child_due += time.perf_counter() - start
            while self.child_due >= CHILD_PERIOD_S or not self.child_samples:
                self.child_due = max(0.0, self.child_due - CHILD_PERIOD_S)
                begin = time.perf_counter()
                subprocess.run([sys.executable, "-c", CHILD_CODE], check=True)
                end = time.perf_counter()
                self.child_samples.append((end, end - begin))
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def factor(self, start: float = None, end: float = None, child: bool = False) -> float:
        """How much slower than the baseline host this host ran from
        ``start`` to ``end`` (the whole run if not given): the median over the
        samples within ``WINDOW_S`` of the interval, or the ``MIN_SAMPLES``
        nearest to it; reference children's if ``child``."""
        samples, nominal = (self.child_samples, CHILD_NOMINAL_S) if child else (self.samples, NOMINAL_S)
        if start is None:
            near = [t for _, t in samples]
        else:
            near = [t for at, t in samples if start - WINDOW_S <= at <= end + WINDOW_S]
            if len(near) < MIN_SAMPLES:
                mid = (start + end) / 2
                near = [t for _, t in sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]]
        return statistics.median(near) / nominal
