"""The host's speed, read all through a run from a fixed pure-Python kernel.

On a shared host the same Python code can run 1.5 to 2 times slower for
seconds or minutes at a time, whatever the program does.  The kernel is a
fixed piece of interpreted integer and ``Fraction`` arithmetic, the kind
of work quadlat does, and it imports nothing from quadlat, so its time
follows only the host.  While a ``Speed`` is active, a timer signal runs
the kernel every ``EVERY_S`` seconds of wall time, inside ops and between
them, and records how long it took.  The benchmark takes the time the
readings spent out of every measured interval and scales the interval to
the speed at which the kernel takes ``REFERENCE_MS``:

    scaled = measured * REFERENCE_MS / (mean of the readings taken during
             the interval and the one on each side of it)

A change to quadlat moves the measured intervals and not the readings, so
it moves the scaled times by the same share as the raw ones.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

# the kernel's time on a 2-core Intel Xeon host at its faster speed
# (CPython 3.11.7); scaled times are times at that speed
REFERENCE_MS = 0.6
EVERY_S = 0.05

_A = [[(7 * i + 3 * j) % 11 - 5 for j in range(12)] for i in range(12)]
_M = [[Fraction((5 * i + 2 * j) % 7 - 3 + 9 * (i == j)) for j in range(4)] for i in range(4)]


def _kernel():
    product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*_A)] for row in _A]
    product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*product)] for row in _A]
    rows = [row[:] for row in _M]
    for k in range(4):
        for i in range(k + 1, 4):
            f = rows[i][k] / rows[k][k]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return product, rows


class Speed:
    """A context manager that takes readings while it is active.  Its clock
    ``now`` stops while a reading runs, so an interval measured with it
    leaves the readings out."""

    def __init__(self):
        self.times: list[float] = []  # ``now`` at the end of each reading
        self.readings: list[float] = []  # seconds per kernel run
        self.spent = 0.0
        self._saved = None

    def read(self, *_signal) -> None:
        # with the collector off, the program's heap does not enter the reading
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.readings.append(end - start)
        self.spent += time.perf_counter() - start
        self.times.append(self.now())

    def now(self) -> float:
        while True:  # a reading may land between the two loads
            spent = self.spent
            clock = time.perf_counter()
            if spent == self.spent:
                return clock - spent

    def __enter__(self):
        self.read()
        self._saved = signal.signal(signal.SIGALRM, self.read)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self.read()
        return False

    def scale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` of work done between the ``now`` values ``start`` and
        ``end``, scaled to the reference speed."""
        first = max(bisect.bisect_left(self.times, start) - 1, 0)
        last = bisect.bisect_right(self.times, end)
        host = statistics.fmean(self.readings[first:last + 1])
        return seconds * REFERENCE_MS * 1e-3 / host
