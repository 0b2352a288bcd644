"""The reference job: a fixed piece of work, independent of dynshape, timed
next to every measured pass so that pass times can be read against the
speed the shared machine had at that moment.

The machine this benchmark was written on drifts between fast and slow
phases (1.3-1.8x apart, 30-60 s long, with no CPU steal), so a wall time
alone says as much about the phase as about the program.  The reference job
mixes what dynshape's workloads spend their time on: interpreted Python
(optimizer and hill-climb loops, per-call overhead), small numpy calls,
FFTs of curve-sized arrays and small dense solves.  It never calls the
package, so no change to dynshape moves it.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

_RNG = np.random.default_rng(20130402)
_CURVES = _RNG.random((10, 801))
_MATRIX = _RNG.random((60, 60)) + 60.0 * np.eye(60)
_RHS = _RNG.random(60)


def _python(n: int) -> float:
    total = 0.0
    table: dict = {}
    for i in range(n):
        total += (i % 7) * 0.5
        table[i & 255] = total
    return total + len(table)


def run_reference() -> float:
    """Run the reference job once; returns its wall seconds (about 0.25 s)."""
    t0 = time.perf_counter()
    _python(700_000)
    for _ in range(230):
        spec = np.fft.rfft(_CURVES, axis=1)
        np.fft.irfft(spec * np.exp(-0.1j * np.arange(spec.shape[1])), n=801, axis=1)
        np.linalg.solve(_MATRIX, _RHS)
        _python(500)
    return time.perf_counter() - t0


class Referenced:
    """Reference-job times taken at the boundaries of measured work.

    Call ``mark()`` before the first pass and after every pass (run.py
    marks before and after every command of a ``desk`` pass instead).
    ``ratio`` reads a wall time against the median of the reference times
    taken around it.
    """

    def __init__(self) -> None:
        self.times: list[float] = []

    def mark(self) -> None:
        self.times.append(run_reference())

    def ratio(self, seconds: float, first: int = 0, stop: int | None = None) -> float:
        """``seconds`` over the median reference time of ``times[first:stop]``."""
        return seconds / statistics.median(self.times[first:stop])
