"""Calibrated time: wall time corrected for the machine's drifting speed.

The machine this benchmark was built on shares its cores with other tenants,
and its speed drifts by 10-20 % over minutes: one fixed task took 28-57 ms.
A Calibrator interrupts the workload from a timer signal every INTERVAL_S
seconds and runs one calibration chunk: a fixed imitation of the library's
hot path (XOR-table products with ``np.add.at``, frozen-dataclass churn)
that runs no gaspin code.  Spans are measured on ``clock``, which stops
while a chunk runs, so no operation or round contains calibration time.
Every reported span is multiplied by ``scale(start, end)``: REFERENCE_S
over the mean time of the chunks that ran within WINDOW_S of the span, i.e.
the span at the speed at which one chunk takes REFERENCE_S.  The mean, not
the median: with chunks spread evenly in time, the mean chunk slows by the
mean slowdown around the span, as the workload does.  A window, not one
factor per pass: the machine switches between a fast and a slow mode within
a pass, and a per-pass factor cannot follow the share of operations that
ran in each mode, which sets the median operation (see README.md).
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Typical chunk time on an Intel Xeon at 2.0 GHz with two shared vCPUs (the
# machine of baseline.json); it sets the reported scale only.
REFERENCE_S = 0.008
INTERVAL_S = 0.08
WINDOW_S = 0.5

_TARGETS = np.bitwise_xor.outer(np.arange(16), np.arange(16))
_SIGNS = np.where(np.random.default_rng(0).random((16, 16)) < 0.5, -1.0, 1.0)
_OPERAND = np.where(np.arange(16) % 3 == 0, 0.0, np.linspace(-1.0, 1.0, 16))


@dataclass(frozen=True)
class _Cell:
    v: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "v", tuple(float(x) for x in self.v))


def chunk() -> float:
    """Seconds taken by one calibration chunk."""
    t0 = time.perf_counter()
    for _ in range(140):
        out = np.zeros(16)
        for i in np.nonzero(_OPERAND)[0]:
            np.add.at(out, _TARGETS[i], _OPERAND[i] * _SIGNS[i] * _OPERAND)
        _Cell(out[:4]), _Cell(out[4:8])
    return time.perf_counter() - t0


class Calibrator:
    """Calibration chunks for one pass, and the clock that excludes them."""

    def __init__(self) -> None:
        self.chunks: list[float] = []
        self.times: list[float] = []  # perf_counter at the start of each chunk
        self.spent = 0.0
        self._previous = None

    def run_chunk(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        self.chunks.append(chunk())
        self.times.append(t0)
        self.spent += time.perf_counter() - t0

    def clock(self) -> float:
        """Wall seconds minus calibration seconds; consistent even when a
        chunk runs between the two reads."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def fill(self, share: float, since: float) -> None:
        """Run chunks until they have taken ``share`` of the wall time since
        ``since``; for passes that cannot be interrupted."""
        while not self.chunks or self.spent < share * (time.perf_counter() - since):
            self.run_chunk()

    def __enter__(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self.run_chunk)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """REFERENCE_S over the mean of all chunks."""
        if not self.chunks:
            self.run_chunk()
        return REFERENCE_S / statistics.fmean(self.chunks)

    def scale(self, start: float, end: float) -> float:
        """Factor for a span that ran from ``start`` to ``end`` (perf_counter
        wall times), from the chunks within WINDOW_S of it."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return REFERENCE_S / statistics.fmean(self.chunks[lo:hi] or self.chunks)
