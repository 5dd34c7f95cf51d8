"""The machine's speed during a run, sampled with a fixed reference loop.

The shared machine this benchmark was written on runs the same code up to
1.5 times slower in phases that last seconds to minutes (see LAYERS.md),
so raw times of two runs of the same code differ by more than the changes
they are meant to compare.  While jobs run, a `SpeedSampler` times
`reference_loop` from a SIGALRM handler every `interval` seconds.  The
run's job times are then reported in reference seconds (unit ``ref_s``):
multiplied by REFERENCE_S / (median loop time during the run).  Set-up time
is measured in other interpreters, outside that window, and stays in plain
seconds.  The loop is benchmark code, so no change to symcap can move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# The loop's median time, on the 2-vCPU Intel Xeon with Python 3.11.7 that
# the bounds in BENCHMARK.json were set on.
REFERENCE_S = 5e-4


def reference_loop():
    """Fixed pure-Python work of the kind symcap does: tuples, dicts, Fractions."""
    total = Fraction(0)
    seen: dict = {}
    for i in range(1, 120):
        key = (i, i * 3 % 7, i * 5 % 11)
        seen[key] = seen.get(key[1:], 0) + i
        total += Fraction(key[1] + 1, key[2] + 2)
    return total, len(seen)


class SpeedSampler:
    """Context manager that samples `reference_loop` while it is active."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.samples: list[float] = []
        self.busy = 0.0  # seconds spent sampling, to take out of job times
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_loop()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.busy += elapsed

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self) -> float:
        """The factor that turns this run's seconds into reference seconds."""
        return REFERENCE_S / statistics.median(self.samples) if self.samples else 1.0
