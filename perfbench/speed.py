"""Machine-speed calibration for the benchmark's time metrics.

The shared host the benchmark was built on changes speed by 40% and more
over seconds to minutes, while the program stays the same: a fixed
pure-Python loop swings from 78 to 112 ms between 20-second windows.
Raw times of two runs of the same code therefore differ by more than any
bound a regression check could use.  What stays put is the ratio of an
item's time to the time of a fixed unit of similar work measured at the
same moment (within 2-4% over the same windows).

So every time metric is reported in *reference seconds*: the measured
seconds multiplied by ``REFERENCE_UNIT_S`` over the mean time of the
calibration units run during the measurement.  The unit is benchmark code,
not framehom code -- exact ``Fraction`` elimination of a fixed matrix
plus some dict and list traffic, the kind of work framehom's exact path
does -- so no change to framehom moves it.  A change that makes framehom
faster moves the reference seconds exactly as it moves the raw ones.

While items run, a ``SIGALRM`` timer fires every ``PERIOD_S`` seconds and
its handler runs one unit, so the samples are spread evenly in time,
inside long items too.  The handler's own time is kept, and taken out of
every item time.  An item's factor is the mean over the units run
during it, or over the ``MIN_SAMPLES`` units nearest to it when it is too
short to hold that many: the item's time adds up the machine's slowness
over its span, and an even sample's mean estimates exactly that.  Over
100 seconds of the exact ladder, this left a per-item coefficient of
variation of 4-5% where the raw one was 14-22%; the median, or a wider
window, left 7-12%.  The raw seconds are kept in the result record.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
MIN_SAMPLES = 5
REFERENCE_UNIT_S = 0.003  # median unit time on the machine the bounds were set on

_N = 8
_MATRIX = tuple(tuple(Fraction((3 * i + 5 * j * j + 1) % 11 - 5, 1 + (i * j) % 4)
                      for j in range(_N)) for i in range(_N))


def unit() -> int:
    """One unit of calibration work; returns the rank of the fixed matrix."""
    rows = [list(r) for r in _MATRIX]
    rank = 0
    for c in range(_N):
        p = next((i for i in range(rank, _N) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        piv = rows[rank][c]
        rows[rank] = [x / piv for x in rows[rank]]
        for i in range(_N):
            if i != rank and rows[i][c] != 0:
                fac = rows[i][c]
                rows[i] = [a - fac * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    counts = {}
    for k in range(4000):
        counts[k % 257] = counts.get(k % 257, 0) + k
    return rank


class Speedometer:
    """Samples the unit's time, on a timer or on demand.

    ``samples`` holds ``(start, seconds)`` pairs on the ``perf_counter``
    clock; ``paused`` is the total time spent in the timer's handler, to
    be taken out of whatever ran meanwhile.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.paused = 0.0
        self._old = None

    def _sample(self) -> float:
        t0 = time.perf_counter()
        unit()
        dt = time.perf_counter() - t0
        self.samples.append((t0, dt))
        return dt

    def _tick(self, signum, frame):
        # a collection the unit triggers would clear garbage of the item
        # it interrupts, and leave the item's time
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.paused += self._sample()
        finally:
            if enabled:
                gc.enable()

    def sample(self, count: int):
        """Run ``count`` units now, outside the timer."""
        for _ in range(count):
            self._sample()

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def factor(self, start: float, end: float, min_samples: int = MIN_SAMPLES) -> float:
        """Reference seconds per measured second over ``[start, end]``.

        Uses the units that started in the span, or, if fewer than
        ``min_samples`` did, the ``min_samples`` units nearest to it.
        """
        if len(self.samples) < min_samples:
            raise RuntimeError(f"{len(self.samples)} calibration samples, "
                               f"{min_samples} needed")
        by_distance = sorted((max(start - t, t - end, 0.0), dt) for t, dt in self.samples)
        inside = [dt for d, dt in by_distance if d == 0.0]
        if len(inside) < min_samples:
            inside = [dt for _, dt in by_distance[:min_samples]]
        return REFERENCE_UNIT_S / statistics.fmean(inside)
