"""Machine-speed calibration for timings taken on a shared, noisy host.

On a shared 2-CPU x86-64 Linux host, the same pure-Python loop ran
anywhere from 15 to 25 ms depending on what other tenants of the host did,
in phases lasting seconds to minutes; a run of seconds cannot average that
out.  So every timing is paired with a fixed calibration burst, pure Python
that does not touch peakseq, run right before and after the timed work.
A timing is reported scaled by ``REFERENCE_S / burst``: seconds on a
machine where one burst takes ``REFERENCE_S``.  Raw seconds are printed
next to the scaled ones.
"""

from __future__ import annotations

import math
import time

BURST_LOOPS = 3600
# A burst took about this long on the reference machine in its fast phase.
REFERENCE_S = 0.001
# Items are grouped until they have run this long, then a burst is taken.
EVERY_S = 0.02


def _burst() -> float:
    # The mix of the program's own work: tuple allocation, dict stores,
    # float math and growing integers.  Of the bursts tried, this one
    # tracked item times best across the host's slow and fast phases.
    acc = 0.0
    table = {}
    big = 1
    for i in range(BURST_LOOPS):
        pair = (i, i * 0.5)
        table[i & 63] = pair
        acc += math.sqrt(pair[1] + acc % 3.0)
        if i & 15 == 0:
            big = big * 12345 + i
    return acc


def burst_seconds() -> float:
    """Duration of one calibration burst (best of two, to skip interrupts)."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        _burst()
        best = min(best, time.perf_counter() - t0)
    return best


class Speedometer:
    """Scales item timings by bursts taken between groups of items.

    Each group of items is scaled by the mean of the bursts just before and
    just after it.
    """

    def __init__(self) -> None:
        self._before = burst_seconds()
        self._pending: list[tuple[float, float]] = []
        self._pending_s = 0.0
        self.item_s: list[float] = []
        self.raw_item_s: list[float] = []
        self.busy_s = 0.0
        self.raw_busy_s = 0.0

    def add(self, item_s: float, busy_s: float) -> None:
        """One item: its own duration and the loop time it took, checks included."""
        self._pending.append((item_s, busy_s))
        self._pending_s += busy_s
        if self._pending_s >= EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        after = burst_seconds()
        scale = REFERENCE_S / (0.5 * (self._before + after))
        for item_s, busy_s in self._pending:
            self.item_s.append(item_s * scale)
            self.raw_item_s.append(item_s)
            self.busy_s += busy_s * scale
            self.raw_busy_s += busy_s
        self._before = after
        self._pending = []
        self._pending_s = 0.0
