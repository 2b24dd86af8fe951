"""Drift correction for timings on a host whose speed changes while it runs.

On a shared host the same Python code can run 1.7x slower for tens of
seconds at a time, because neighbours load the shared cores and caches.
Medians within one run cannot remove a slowdown that lasts the whole run.
A fixed reference loop, which uses only the standard library and no program
code, slows down in step with the program.  It runs between the timed
operations, for about a tenth of the time they take.  Each operation's time
is scaled by the loop's nominal duration over its current duration, so it
reads in seconds of a host running at nominal speed.  Over a minute in
which raw pass times varied with a coefficient of variation of 0.19, the
ratio of pass time to loop time varied with 0.034.
"""

from __future__ import annotations

import statistics
from time import perf_counter

NOMINAL_LOOP_S = 150e-6   # reference loop duration at nominal host speed
DUTY = 0.1                # loop time per second of measured operations
BLOCK = 16                # loops run back to back in one speed estimate

_DATA = tuple((i * 7919 % 1009, str(i)) for i in range(300))


def reference_loop() -> int:
    """Fixed interpreter work: dict inserts, tuple and string building, a sort."""
    d = {}
    for k, s in _DATA:
        d[s] = (k, s + "x")
    return len(sorted(d.values(), key=lambda v: (-v[0], v[1])))


class HostClock:
    """Converts measured seconds to seconds at nominal host speed.

    Loops run in blocks of at least BLOCK, back to back, so that each block
    sees warm caches whatever ran before it; the block's median duration is
    the speed estimate until the next block.
    """

    def __init__(self):
        self.owed = BLOCK * NOMINAL_LOOP_S
        self.loops = 0
        self.loop_s = 0.0
        self.estimate = NOMINAL_LOOP_S
        self._block()

    def _block(self) -> None:
        block = []
        while self.owed > 0 or len(block) < BLOCK:
            t0 = perf_counter()
            reference_loop()
            block.append(perf_counter() - t0)
            self.owed -= block[-1]
        self.loops += len(block)
        self.loop_s += sum(block)
        self.estimate = statistics.median(block)

    def nominal(self, seconds: float) -> float:
        """``seconds`` just measured, scaled to nominal host speed."""
        self.owed += DUTY * seconds
        if self.owed >= BLOCK * self.estimate:
            self._block()
        return seconds * NOMINAL_LOOP_S / self.estimate

    def speed(self) -> float:
        """Mean host speed so far, relative to nominal (1.0 = nominal)."""
        return NOMINAL_LOOP_S * self.loops / self.loop_s
