"""Host speed: a fixed loop, timed at a steady beat while fedsim runs.

The benchmark runs on a few cores of a shared host. There, the same fixed
numpy loop ran up to twice as slow for tens of seconds at a time, and
flickered between two speeds within a second. CPU time slowed with wall
time: the host ran the same work slower, it did not take CPU time away. A
run's median invocation time followed that drift more than it followed
fedsim.

So during every untraced invocation a wall-clock timer (SIGALRM, in this
process; no thread is started) interrupts fedsim every TICK_S seconds and
times one short fixed loop. The loops' time is taken off the invocation's
wall and CPU time, and the invocation's times are reported at the
reference speed:

    reported = (measured - loops' time) × REFERENCE_S / mean loop time

The loop mixes what fedsim spends its time on: Python-level iteration,
numpy calls on 12-row batches, and a larger matrix product, as on
mnist_shape. It reads no fedsim code, so a change to fedsim cannot change
it.
"""

from __future__ import annotations

import contextlib
import signal
from time import perf_counter, process_time

# About the median time of one loop on the reference machine (2 vCPUs,
# Intel Xeon at 2.0 GHz, OpenBLAS with 1 thread). It only sets the scale of
# the reported times; both sides of a comparison use the same value.
REFERENCE_S = 0.0025
# One loop of about 2 ms every TICK_S seconds of wall time.
TICK_S = 0.05


class HostSpeed:
    def __init__(self):
        import numpy as np  # after run.py has pinned BLAS to one thread

        self.np = np
        rng = np.random.default_rng(0)
        self.batch = rng.random((12, 64))
        self.weights = rng.random((64, 32))
        self.images = rng.random((32, 784))
        self.hidden = rng.random((784, 128))
        self.ticks = []  # (wall, CPU) seconds of each loop timed in the current block

    def loop(self) -> tuple[float, float]:
        """Wall and CPU seconds of one fixed loop, run now."""
        start, cpu0 = perf_counter(), process_time()
        total = 0
        for i in range(8_000):
            total += i * i % 7
        for _ in range(120):
            h = self.np.maximum(self.batch @ self.weights, 0.0)
            h.sum()
        for _ in range(2):
            self.images @ self.hidden
        return perf_counter() - start, process_time() - cpu0

    def _tick(self, signum, frame) -> None:
        self.ticks.append(self.loop())

    @contextlib.contextmanager
    def sampling(self):
        """Time a loop every TICK_S seconds of wall time while the block runs."""
        self.ticks = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
