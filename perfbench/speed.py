"""Machine-speed scaling of the gated timings.

The benchmark runs on a shared host whose speed drifts by tens of
percent over seconds and minutes, in CPU time as much as in wall time.
Medians inside one run cannot remove a drift between runs, so every
gated timing is taken in slices, and each slice is bracketed by a fixed
pure-Python loop timed just before and just after it.  The slice's
times are multiplied by ``REFERENCE_S`` over the mean of those two loop
times: they are reported in seconds of a machine on which the loop takes
``REFERENCE_S``.  The loop runs in the benchmark process while the
program is idle, so no change to the program moves it; what it tracks is
how much of the machine the benchmark got at that moment.
"""

from __future__ import annotations

import time
from typing import List

#: Iterations of the reference loop.
LOOP = 250_000
#: The loop's time that defines the scaled unit: about its median on an
#: idle 2-vCPU Linux VM under Python 3.11.
REFERENCE_S = 0.020


def loop_s() -> float:
    """Wall seconds of one pass of the reference loop."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(LOOP):
        acc += (i % 7) * 0.5
    return time.perf_counter() - start


class Slice:
    """``with Slice() as s:`` brackets its body with the reference loop.

    Afterwards ``s.factor`` turns wall seconds measured inside the body
    into reference seconds, and ``s.raw_s``/``s.scaled_s`` are the body's
    own wall time unscaled and scaled.
    """

    def __enter__(self) -> "Slice":
        self._before = loop_s()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.raw_s = time.perf_counter() - self._start
        self.factor = 2 * REFERENCE_S / (self._before + loop_s())
        self.scaled_s = self.raw_s * self.factor


def factor_summary(factors: List[float]) -> dict:
    """The spread of the scale factors over a run, for the report."""
    ordered = sorted(factors)
    return {
        "min": ordered[0],
        "median": ordered[len(ordered) // 2],
        "max": ordered[-1],
        "slices": len(ordered),
    }
