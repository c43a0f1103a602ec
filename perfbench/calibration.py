"""Machine-speed calibration for the end-to-end times.

On a shared box the speed of the CPU a run gets moves by 25-35% over minutes,
and by more within seconds, with the load of other tenants; every time a run
measures moves with it.  The run therefore also times a fixed snippet of
benchmark code between its ops, and scales each op's time by REFERENCE_S /
(median time of the snippet samples taken nearest to that op): op times are
reported as if the snippet took REFERENCE_S.  The snippet is a tight integer
loop in the interpreter: it never calls the package, and it holds no
container objects, so neither the collector nor the heap the ops leave
behind changes its time.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List

REFERENCE_S = 0.010  # nominal snippet time: about its time on a quiet box
NEIGHBOURS = 7  # snippet samples that set the speed around one op


def _snippet() -> int:
    x = 0
    for i in range(100_000):
        x = (x * 31 + i) % 1_000_003
    return x


class Calibration:
    """Snippet timings of one run, each at a position on the run's clock of
    op time."""

    def __init__(self):
        self.positions: List[float] = []
        self.samples: List[float] = []

    def sample(self, position: float) -> None:
        t0 = time.perf_counter()
        _snippet()
        self.samples.append(time.perf_counter() - t0)
        self.positions.append(position)

    def scale_at(self, position: float) -> float:
        """Factor that turns the time of an op run around ``position`` into
        one at nominal speed."""
        k = min(NEIGHBOURS, len(self.samples))
        mid = bisect.bisect_left(self.positions, position)
        lo = max(0, min(mid - k // 2, len(self.samples) - k))
        return REFERENCE_S / statistics.median(self.samples[lo:lo + k])
