"""Time-series collection for experiment figures.

Every figure in the paper is a series over time (bytes sent/received,
queue length, spectrogram frames).  :class:`TimeSeries` is the shared
recorder; :class:`Counter` wraps monotonically growing totals with a
sampling helper; :func:`distinct_sorted` dedupes packed integer keys.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np


def distinct_sorted(packed: np.ndarray) -> np.ndarray:
    """The distinct values of a non-empty integer array, ascending.

    One sort and an adjacent-difference mask: ``np.unique`` (numpy 2.4)
    hashes integer input before sorting and costs several times more
    on the packed (slot, key) pairs the presence paths dedupe.
    """
    packed = np.sort(packed)
    return packed[np.insert(packed[1:] != packed[:-1], 0, True)]


@dataclass
class TimeSeries:
    """An append-only series of ``(time, value)`` samples.

    Times must be non-decreasing (they come from one simulation clock).
    """

    name: str = ""
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"times must be non-decreasing: {time} after {self.times[-1]}"
            )
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def value_at(self, time: float) -> float:
        """Last recorded value at or before ``time`` (0.0 if none)."""
        index = bisect_right(self.times, time) - 1
        if index < 0:
            return 0.0
        return self.values[index]

    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    def min(self) -> float:
        return min(self.values) if self.values else 0.0

    def final(self) -> float:
        return self.values[-1] if self.values else 0.0

    def window(self, start: float, end: float) -> "TimeSeries":
        """Samples with ``start <= time < end``.

        Times are non-decreasing, so both window edges are found by
        bisection and the samples sliced out in O(log n + k); the old
        full linear scan made repeated windowing of long runs quadratic.
        """
        lo = bisect_left(self.times, start)
        hi = bisect_left(self.times, end)
        result = TimeSeries(self.name)
        result.times = self.times[lo:hi]
        result.values = self.values[lo:hi]
        return result

    def rate_series(self) -> "TimeSeries":
        """Discrete derivative: per-interval increase between samples."""
        result = TimeSeries(f"{self.name}.rate")
        for index in range(1, len(self.times)):
            dt = self.times[index] - self.times[index - 1]
            if dt <= 0:
                continue
            delta = self.values[index] - self.values[index - 1]
            result.record(self.times[index], delta / dt)
        return result


@dataclass
class Counter:
    """A monotonically increasing total (bytes, packets, drops)."""

    name: str = ""
    total: float = 0.0

    def add(self, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be non-negative: {amount}")
        self.total += amount

    def increment(self) -> None:
        self.total += 1
