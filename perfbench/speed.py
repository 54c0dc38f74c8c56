"""Core-speed probe: rescales measured times to a fixed reference speed.

On a shared machine the speed of one core moves by half or more over
seconds as neighbours load its sibling, so raw wall times of identical runs
spread far wider than any useful regression bound.  A fixed kernel, timed
in thread CPU time on the core the workload is pinned to, measures that
speed; a time multiplied by ``REFERENCE_S / kernel time`` is the time the
work would take at the speed where the kernel takes exactly ``REFERENCE_S``.
The kernel shares no code with ratered, so a change to the program moves
the rescaled time and a change of core speed does not.

Thread CPU time excludes any wait for the core, so a program thread that
releases the interpreter lock and competes for the core cannot slow the
probe down.
"""

from __future__ import annotations

import threading
import time
from array import array

REFERENCE_S = 100e-6      # kernel time that defines the reference speed

# A fixed 51-point profile with BOTTOM ends, like one grid line of a field.
_PROFILE = [float("-inf")] * 5 + [((i * 7919) % 101) / 100.0 for i in range(41)] \
    + [float("-inf")] * 5


def kernel() -> int:
    """Upper hulls of a fixed profile in plain Python lists and floats.

    The mix of list and float work is the mix of the workloads' hot loops,
    which tracks their slowdown closer than pure arithmetic does (measured
    on a shared 2-core Xeon: residual iteration-to-iteration spread 3 % with
    this kernel, 4-6 % with an arithmetic loop, 7-10 % with a numpy one).
    """
    vertices = 0
    for _ in range(4):
        hx: list = []
        hy: list = []
        for j, y in enumerate(_PROFILE):
            if y == float("-inf"):
                continue
            while len(hx) >= 2 and (
                (hx[-1] - hx[-2]) * (y - hy[-2]) - (hy[-1] - hy[-2]) * (j - hx[-2]) >= 0.0
            ):
                hx.pop()
                hy.pop()
            hx.append(j)
            hy.append(y)
        vertices += len(hx)
    return vertices


def kernel_time() -> float:
    start = time.thread_time()
    kernel()
    return time.thread_time() - start


class SpeedProbe:
    """Times the kernel every ``period`` seconds in a background thread.

    The thread shares the pinned core with whatever it measures: the
    workload's main thread, or a child process starting up.
    """

    def __init__(self, period: float) -> None:
        self.period = period
        self.at = array("d")          # perf_counter() when each sample ended
        self.took = array("d")        # kernel thread CPU time of each sample
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-probe", daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(self.period):
            took = kernel_time()
            self.at.append(time.perf_counter())
            self.took.append(took)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """Mean speed relative to the reference over [start, end]: each
        sample's REFERENCE_S / kernel time, weighted by the time since the
        sample before it.  The whole run's mean stands in when no sample
        falls inside."""
        speeds, weights = [], []
        previous = start
        for at, took in zip(self.at, self.took):
            if start < at <= end:
                speeds.append(REFERENCE_S / took)
                weights.append(at - previous)
                previous = at
        if not speeds:
            speeds = [REFERENCE_S / took for took in self.took] or [1.0]
            weights = [1.0] * len(speeds)
        return sum(s * w for s, w in zip(speeds, weights)) / sum(weights)
