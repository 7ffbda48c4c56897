"""Host-speed calibration of timed operations.

The benchmark runs on a few vCPUs of a shared host whose speed swings by up to
2x within minutes; CPU time tracks wall time, so the swing is the host running
the same instructions slower, not the process waiting. A fixed calibration
block is timed before and after the operations of a run, at most every
``INTERVAL`` seconds, and up to
``MAX_BLOCKS`` times in a row after a long gap, so that a long operation has
as many blocks on either side as a stretch of short ones. An operation's
reported time is its wall time scaled by ``REFERENCE_S`` over the median
calibration time in a window around it: seconds on a host where the block takes
``REFERENCE_S``. A change to recurq moves the operation's wall time and not the
block, so it shows in full; a swing of the host moves both and cancels.

The block is benchmark code only, no recurq code, and mixes the kinds of work
recurq does, because a swing slows them by different amounts: numpy gathers
from a table that fits in a core's L2 cache and from one that does not, a
pure-Python integer loop, and building small Python objects (frozensets in a
dict, as label sets are read).
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 0.010  # the block's time on the 2-vCPU host of the baseline when it runs fast
INTERVAL = 0.2  # at most one calibration block per this many seconds of operations
WINDOW = 2.0  # blocks up to this far, or the operation's own length if longer,
# before or after an operation calibrate it
MAX_BLOCKS = 8

_rng = np.random.default_rng(0)
_SMALL = _rng.random(1 << 17)  # 1 MB
_LARGE = _rng.random(1 << 22)  # 32 MB
_INDEX = _rng.integers(0, _SMALL.size, _SMALL.size)
_SPREAD_INDEX = _rng.integers(0, _LARGE.size, _SMALL.size)


def block() -> float:
    acc = np.zeros(_INDEX.size)
    for _ in range(4):
        acc += _SMALL[_INDEX]
    for _ in range(2):
        acc += _LARGE[_SPREAD_INDEX]
    s = 0
    for j in range(20_000):
        s += j * j
    sets = {}
    for j in range(7_000):
        sets[j] = frozenset((j & 255,))
    return float(acc[0]) + s + len(sets)


class Clock:
    """Calibration samples of one run and the scaling of its operation times."""

    def __init__(self) -> None:
        self.at: list[float] = []  # midpoint of each calibration block
        self.took: list[float] = []  # its wall time
        self._last = -float("inf")

    def tick(self) -> None:
        """Time one calibration block per ``INTERVAL`` since the last one, at
        most ``MAX_BLOCKS``; none if one ran within ``INTERVAL``."""
        now = time.perf_counter()
        gap = now - self._last
        for _ in range(int(min(MAX_BLOCKS, gap / INTERVAL))):
            block()
            end = time.perf_counter()
            self.at.append((now + end) / 2)
            self.took.append(end - now)
            now = self._last = end

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S / median block time within max(WINDOW, end - start)
        of [start, end]; the nearest block if none is that close."""
        reach = max(WINDOW, end - start)
        lo = bisect.bisect_left(self.at, start - reach)
        hi = bisect.bisect_right(self.at, end + reach)
        near = self.took[lo:hi]
        if not near:
            i = min(range(len(self.at)), key=lambda j: min(abs(self.at[j] - start), abs(self.at[j] - end)))
            near = [self.took[i]]
        return REFERENCE_S / statistics.median(near)

    def seconds(self, span: tuple[float, float]) -> float:
        """Host-speed-scaled duration of an operation that ran over ``span``."""
        start, end = span
        return (end - start) * self.factor(start, end)

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.took)
