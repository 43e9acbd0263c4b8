"""Calibrated time: a frozen reference kernel run around every timed operation.

On a shared two-core sandbox the same pure-numpy loop runs up to 1.7x slower
from one second to the next, and process CPU time follows wall time (the core
itself is slower, the process is not descheduled).  Raw wall time of a search
therefore says more about the host than about the program.  The benchmark
runs :func:`reference_kernel` -- the same mix of tiny numpy column updates and
``heapq`` traffic an OASIS expansion is made of, but with no ``repro`` import
and never to be edited -- before and after what it times, and reports

    calibrated = raw * CALIB_NOMINAL_S / mean(kernel before, kernel after)

so units stay seconds and a quiet machine reports what its wall clock shows.

``python3 bench_e2e/calib.py --selfcheck`` runs the kernel 200 times and
prints its spread: a wide spread means a noisy host, not a noisy benchmark.
"""

from __future__ import annotations

import heapq
import statistics
import sys
import time
from typing import Callable, List, Tuple, TypeVar

import numpy as np

#: Quiet-machine minimum of one :func:`reference_kernel` run, fixed once.
#: It is only a scale: changing it rescales every calibrated time alike.
CALIB_NOMINAL_S = 0.0022

#: An operation shorter than this shares its neighbours' calibration points.
CALIB_GAP_S = 0.020

_KERNEL_ROUNDS = 400
_COLUMN = 24

T = TypeVar("T")


def reference_kernel() -> float:
    """Run the frozen kernel once and return its wall time in seconds."""
    start = time.perf_counter()
    offsets = np.arange(_COLUMN, dtype=np.int64) * -8
    profile = (np.arange(_COLUMN * 20, dtype=np.int64).reshape(20, _COLUMN) % 23) - 11
    read = np.zeros(_COLUMN, dtype=np.int64)
    write = np.zeros(_COLUMN, dtype=np.int64)
    row = np.zeros(_COLUMN, dtype=np.int64)
    heap: List[Tuple[int, int, Tuple[int, int]]] = []
    best = 0
    for step in range(_KERNEL_ROUNDS):
        np.add(read, -8, out=row)
        np.add(read[:-1], profile[step % 20][1:], out=write[1:])
        np.maximum(write[1:], row[1:], out=write[1:])
        write[0] = row[0]
        np.subtract(write, offsets, out=write)
        np.maximum.accumulate(write, out=write)
        np.add(write, offsets, out=write)
        np.maximum(write, 0, out=write)
        column_best = int(np.maximum.reduce(write))
        if column_best > best:
            best = column_best
        heapq.heappush(heap, (-column_best, step, (step, best)))
        if step % 3 == 2:
            heapq.heappop(heap)
        read, write = write, read
    return time.perf_counter() - start


class Calibrator:
    """Collects calibration points and converts raw times to calibrated ones."""

    def __init__(self) -> None:
        #: (end time of the kernel run, its duration)
        self.points: List[Tuple[float, float]] = []

    def point(self) -> None:
        duration = reference_kernel()
        self.points.append((time.perf_counter(), duration))

    def point_if_stale(self) -> None:
        """Calibrate unless the last point is fresher than ``CALIB_GAP_S``."""
        if not self.points or time.perf_counter() - self.points[-1][0] > CALIB_GAP_S:
            self.point()

    def timed(self, operation: Callable[[], T]) -> Tuple[T, float, float]:
        """Run ``operation`` bracketed by calibration points.

        Returns ``(value, raw seconds, calibrated seconds)``.
        """
        self.point_if_stale()
        before = self.points[-1][1]
        start = time.perf_counter()
        value = operation()
        raw = time.perf_counter() - start
        self.point()
        after = self.points[-1][1]
        return value, raw, raw * CALIB_NOMINAL_S / ((before + after) / 2.0)

    def slowdowns(self) -> List[float]:
        return [duration / CALIB_NOMINAL_S for _, duration in self.points]


def spread(values: List[float]) -> Tuple[float, float, float]:
    """``(median, IQR / median, range / median)`` of a sample."""
    median = statistics.median(values)
    quartiles = statistics.quantiles(values, n=4)
    return median, (quartiles[2] - quartiles[0]) / median, (max(values) - min(values)) / median


def _selfcheck() -> int:
    for _ in range(20):
        reference_kernel()
    runs = [reference_kernel() for _ in range(200)]
    median, iqr, full = spread(runs)
    print(f"reference kernel, 200 runs: min {min(runs) * 1e3:.3f} ms  "
          f"median {median * 1e3:.3f} ms  max {max(runs) * 1e3:.3f} ms")
    print(f"IQR/median {iqr:.3f}  range/median {full:.3f}  "
          f"CALIB_NOMINAL_S {CALIB_NOMINAL_S * 1e3:.3f} ms  "
          f"slowdown p50 {median / CALIB_NOMINAL_S:.3f}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--selfcheck"]:
        sys.exit(_selfcheck())
    sys.exit("usage: calib.py --selfcheck")
