"""Host-speed samples that put every timed call on one scale.

On a shared 2-core host the same solve takes anywhere from 1x to 2x its
fastest time: the cores flip between two speeds many times a second, and
process CPU time slows with wall time, so no scheduler statistic can tell. A run
therefore times a fixed kernel between operations (at most every
`EVERY` seconds) and reports each call's wall time scaled by
`REFERENCE_S` over the mean kernel time of the samples just before and just
after it. The kernel does the solvers' kind of work (small dense pivots in
Python and numpy) but uses nothing from polystack, so a change to the
program cannot move it; it only cancels the speed of the host.

Over five seeds of `wide-action`, the IQR/median of `plfe_wall_s` fell from
0.29 unscaled to 0.06 scaled, and that of `verify_wall_s` from 0.34 to 0.06.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

EVERY = 0.05  # seconds of operations between two samples
REFERENCE_S = 0.005  # kernel time the reported seconds are scaled to
_STEPS = 350
_START = np.random.default_rng(0).uniform(1.0, 2.0, (12, 20))


def kernel() -> float:
    """Seconds taken by a fixed run of tableau pivots on a 12 x 20 matrix."""
    T = _START.copy()
    acc = 0.0  # entering-column searches, as in a pivot
    t0 = time.perf_counter()
    for k in range(_STEPS):
        r, j = k % 12, k % 20
        T[r] = T[r] / T[r, j]
        col = T[:, j].copy()
        col[r] = 0.0
        T -= np.outer(col, T[r])
        T = np.abs(T) + 1.0
        acc += float(np.argmax(T[0]))
    return time.perf_counter() - t0


class HostSpeed:
    def __init__(self):
        self.at: list[float] = []  # perf_counter when each sample ended
        self.kernel_s: list[float] = []
        self._due = 0.0

    def sample(self) -> None:
        t = kernel()
        self.at.append(time.perf_counter())
        self.kernel_s.append(t)
        self._due = self.at[-1] + EVERY

    def maybe_sample(self) -> None:
        if time.perf_counter() >= self._due:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a call timed from start to end into reference
        seconds; needs a sample before start and one after end."""
        i = bisect.bisect_right(self.at, start) - 1
        j = bisect.bisect_left(self.at, end)
        return 2.0 * REFERENCE_S / (self.kernel_s[i] + self.kernel_s[j])
