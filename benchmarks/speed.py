"""The machine's current speed, from a fixed probe timed between jobs.

On a shared host the same code runs up to twice as slowly for seconds or
minutes at a time, with CPU time tracking wall time, so the slowdown is in
execution speed and not in scheduling.  Raw wall time then measures the
neighbours more than the program.  So the benchmark times ``probe()``, a
fixed piece of numpy work, about every ``EVERY_S`` seconds of job time,
between two jobs, and scales each job's time by ``REFERENCE_S`` over the
median of the two probes before the job and the two after it.  The result
is the time the job would have taken with the probe at its reference
speed.  The probe calls nothing in ``cyclicforms``, so a change to the
program moves the jobs and leaves the probe alone.

The scaling is not exact.  Code that waits on memory slows less than the
probe, and pure interpreter code slows more, so some spread between runs
remains; ``README.md`` gives the measured figures.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Median probe time on the 2-vCPU Intel Xeon VM of the measurements in
# README.md, in its fast state.  Scaled times are seconds at that speed.
REFERENCE_S = 0.0050
EVERY_S = 0.25  # job time between probes

_SIGNAL = np.exp(2j * np.pi * np.arange(4096) / 4096 * 7.0)
_BLOCK = np.linspace(0.0, 1.0, 1 << 15)
_SCRATCH = np.empty_like(_BLOCK)


def probe() -> float:
    """Seconds taken by a fixed mix of numpy work: FFTs of 4096 points and
    element-wise passes over a quarter MiB.  Every array it makes is below
    glibc's mmap threshold, so the allocator state the program left behind
    does not change its cost."""
    start = time.perf_counter()
    spec = _SIGNAL
    for _ in range(32):
        spec = np.fft.ifft(np.fft.fft(spec) * 0.5)
    total = 0.0
    for _ in range(24):
        np.multiply(_BLOCK, 3.0, out=_SCRATCH)
        np.add(_SCRATCH, 1.0, out=_SCRATCH)
        np.sqrt(_SCRATCH, out=_SCRATCH)
        total += float(_SCRATCH.sum())
    if not (total > 0 and np.isfinite(spec[0])):
        raise AssertionError("speed probe went wrong")
    return time.perf_counter() - start


class SpeedLog:
    """Probe times against the clock; scales spans of wall time to the reference speed."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self.overhead_s = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        took = probe()
        self.at.append(t0)
        self.took.append(took)
        self.overhead_s += time.perf_counter() - t0

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] - self.took[-1] >= EVERY_S

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median of the two probes before ``start`` and the
        two after ``end`` (fewer at the ends of the log)."""
        lo = bisect.bisect_right(self.at, start)
        hi = bisect.bisect_left(self.at, end)
        near = self.took[max(0, lo - 2):lo] + self.took[hi:hi + 2]
        if not near:
            raise RuntimeError("no speed probe near the span")
        return REFERENCE_S / statistics.median(near)

    def scale(self, start: float, end: float) -> float:
        """Seconds the span [start, end] would have taken at the reference speed."""
        return (end - start) * self.factor(start, end)
