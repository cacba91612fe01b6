"""Metric instruments and the hierarchical registry behind ``repro.obs``.

Three instrument kinds cover everything the experiments need to see:

* :class:`Counter` — monotonically increasing totals (events processed,
  tones pruned, drops);
* :class:`Gauge` — last-observed values, either pushed (``set``) or
  pulled at snapshot time (:class:`CallbackGauge`, e.g. heap depth);
* :class:`Histogram` — exact distributions over fixed-width integer
  bins of :data:`RESOLUTION` (1 µs for every ``*_ms`` histogram, so
  the sub-µs ``sim.callback_ms.*`` timings read in 1 µs steps), with
  the quantiles the paper's Fig 2b reports (p50/p90/p99) and a merge
  that is integer addition.

Instruments live in a :class:`MetricsRegistry` under hierarchical
dotted names (``controller.window_ms``, ``channel.tones_pruned``).  The
registry renders a human-readable report and snapshots to plain dicts
(which :func:`repro.artifact.export_json` writes to
``.benchmarks/OBS_*.json``).  Instruments can also float
free of any registry — that is how components keep per-instance
counters API-compatible when observability is disabled (see
``repro.obs``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from typing import Callable

import numpy as np

#: Histogram bin width, in the observed unit: 1 µs for every ``*_ms``
#: histogram, while integer observations (``queue.occupancy``) stay
#: exact.
RESOLUTION = 1e-3


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int | float = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount

    def merge(self, other: "Counter") -> "Counter":
        """Fold another counter's total into this one (fleet rollup)."""
        self.value += other.value
        return self

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-value instrument (queue occupancy, heap depth...)."""

    __slots__ = ("name", "value", "updates")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        self.updates += 1

    def merge(self, other: "Gauge | CallbackGauge",
              policy: str = "last") -> "Gauge":
        """Fold another gauge in under ``policy``.

        ``"last"`` — merge order wins: the other gauge's value replaces
        this one's, provided the other was ever set (an untouched gauge
        never overwrites a live reading).  ``"max"`` — keep the larger
        of the two live readings (peak rollup, e.g. per-shard heap
        peaks).  A :class:`CallbackGauge` on the other side is sampled
        at merge time and treated as a single live update.
        """
        if policy not in ("last", "max"):
            raise ValueError(f"unknown gauge merge policy {policy!r}")
        other_updates = getattr(other, "updates", 1)
        if other_updates:
            other_value = other.value
            if policy == "last" or not self.updates \
                    or other_value > self.value:
                self.value = other_value
        self.updates += other_updates
        return self

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value, "updates": self.updates}


class CallbackGauge:
    """A gauge evaluated lazily at snapshot time — zero hot-path cost."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[], float]) -> None:
        self.name = name
        self.fn = fn

    @property
    def value(self) -> float:
        return self.fn()

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """An exact distribution over fixed-width integer bins.

    A value lands in bin ``round(value / RESOLUTION)``; the state is
    ``{bin: count}`` plus the exact ``min``/``max``.  ``count``,
    ``total``, ``mean`` and the quantiles are derived from the bins, each
    value standing at its bin's centre.  A merge adds counts, so any
    partition of the same observations, merged in any order, gives a
    byte-identical :meth:`snapshot`.  Non-finite values (NaN, ±inf)
    raise ``ValueError``.
    """

    __slots__ = ("name", "min", "max", "_bins")

    def __init__(self, name: str) -> None:
        self.name = name
        self.min = math.inf
        self.max = -math.inf
        self._bins: dict[int, int] = {}

    def observe(self, value: float) -> None:
        # -0.0 + 0.0 is 0.0: the extremes must not depend on which of
        # two equal zeros came first.
        value += 0.0
        scaled = value / RESOLUTION
        if not math.isfinite(scaled):
            raise ValueError(f"histogram {self.name!r} takes finite "
                             f"values, got {value}")
        key = round(scaled)
        bins = self._bins
        bins[key] = bins.get(key, 0) + 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_many(self, values) -> None:
        """The same bins, ``min`` and ``max`` as a loop of
        :meth:`observe` (``np.rint`` rounds half to even, as ``round``
        does); a non-finite value raises before any is observed."""
        values = np.asarray(values, dtype=float).reshape(-1) + 0.0
        if not len(values):
            return
        scaled = values / RESOLUTION
        if not np.isfinite(scaled).all():
            raise ValueError(f"histogram {self.name!r} takes finite values")
        keys, counts = np.unique(np.rint(scaled), return_counts=True)
        self._add(zip(map(int, keys.tolist()), counts.tolist()),
                  float(values.min()), float(values.max()))

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another histogram in: bin counts add, extremes combine
        (an empty one's ``inf`` sentinels never win)."""
        self._add(other._bins.items(), other.min, other.max)
        return self

    def _add(self, counts, low: float, high: float) -> None:
        bins = self._bins
        for key, count in counts:
            bins[key] = bins.get(key, 0) + count
        if low < self.min:
            self.min = low
        if high > self.max:
            self.max = high

    @property
    def count(self) -> int:
        return sum(self._bins.values())

    @property
    def total(self) -> float:
        """Sum of the bin centres: an exact integer sum, scaled once."""
        return sum(key * n for key, n in self._bins.items()) * RESOLUTION

    @property
    def mean(self) -> float:
        """Arithmetic mean; 0.0 (never NaN) for an empty histogram."""
        count = self.count
        return self.total / count if count else 0.0

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile over the sorted bin centres.
        An empty histogram reports 0.0 for every quantile."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._bins:
            return 0.0
        keys = sorted(self._bins)
        # ends[i]: the observations in bins keys[0..i]; the i-th
        # smallest observation is in bin keys[bisect_right(ends, i)].
        ends = list(accumulate(self._bins[key] for key in keys))
        last = ends[-1] - 1
        position = q * last
        lower = int(position)
        fraction = position - lower
        low = keys[bisect_right(ends, lower)] * RESOLUTION
        high = keys[bisect_right(ends, min(lower + 1, last))] * RESOLUTION
        return low * (1.0 - fraction) + high * fraction

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        return self.quantile(0.90)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def snapshot(self) -> dict:
        if not self._bins:
            return {"type": "histogram", "count": 0}
        return {
            "type": "histogram",
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
        }


Instrument = Counter | Gauge | CallbackGauge | Histogram


class MetricsRegistry:
    """Hierarchically named instruments for one deployment/run.

    ``counter``/``gauge``/``histogram`` get-or-create shared
    instruments by name (ad-hoc use: benchmarks, experiments).
    :meth:`register` attaches an externally owned instrument and
    de-duplicates colliding names with a numeric suffix, which is how
    per-component-instance counters stay per-instance while remaining
    visible in one report.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Instrument] = {}

    # -- creation ------------------------------------------------------

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def gauge_fn(self, name: str, fn: Callable[[], float]) -> CallbackGauge:
        """Register a pull-style gauge evaluated at snapshot time."""
        return self.register(CallbackGauge(name, fn))

    def _get_or_create(self, name: str, cls) -> Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}"
                )
            return existing
        instrument = cls(name)
        self._instruments[name] = instrument
        return instrument

    def register(self, instrument):
        """Attach an externally created instrument, de-duplicating its
        name (``name``, ``name#2``, ``name#3``...).  Returns the
        instrument, whose ``name`` reflects the registered key."""
        base = instrument.name
        name, suffix = base, 2
        while name in self._instruments:
            name = f"{base}#{suffix}"
            suffix += 1
        instrument.name = name
        self._instruments[name] = instrument
        return instrument

    # -- lookup --------------------------------------------------------

    def get(self, name: str) -> Instrument | None:
        return self._instruments.get(name)

    def names(self, prefix: str = "") -> list[str]:
        return sorted(n for n in self._instruments if n.startswith(prefix))

    def total(self, prefix: str) -> float:
        """Sum of counter/gauge values whose names start with ``prefix``
        (a de-dup-suffix-tolerant aggregate, e.g. ``channel.tones_pruned``)."""
        return sum(
            self._instruments[name].value
            for name in self.names(prefix)
            if not isinstance(self._instruments[name], Histogram)
        )

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    # -- merging -------------------------------------------------------

    def merge(self, other: "MetricsRegistry",
              gauge_policy: str = "last") -> "MetricsRegistry":
        """Fold another registry into this one, matching by exact name.

        This is the fleet rollup: each room returns its own registry
        and the driver merges them.  Semantics per kind:

        * counters sum (float totals in merge order, so a fixed order
          keeps them bit-identical);
        * gauges follow ``gauge_policy`` (``"last"``: merge order wins,
          ``"max"``: peak rollup) — see :meth:`Gauge.merge`;
        * histograms add their bin counts, exactly and in any order
          (:meth:`Histogram.merge`);
        * a :class:`CallbackGauge` on the other side is sampled once
          into a plain gauge (a callback cannot cross a process
          boundary; its last reading can).

        Names are **not** re-de-duplicated: shard A's ``arq.sent#2``
        merges into shard B's ``arq.sent#2``, keeping per-instance
        streams aligned across shards.  Instruments missing on this
        side are created; a same-name/different-kind collision raises
        ``TypeError``.
        """
        for name in other.names():
            theirs = other._instruments[name]
            if isinstance(theirs, CallbackGauge):
                sampled = Gauge(name)
                sampled.set(theirs.value)
                theirs = sampled
            mine = self._instruments.get(name)
            if mine is None:
                mine = self._instruments[name] = type(theirs)(name)
            if isinstance(mine, CallbackGauge) or \
                    type(mine) is not type(theirs):
                raise TypeError(
                    f"cannot merge {type(theirs).__name__} into metric "
                    f"{name!r} ({type(mine).__name__})"
                )
            if isinstance(mine, Gauge):
                mine.merge(theirs, policy=gauge_policy)
            else:
                mine.merge(theirs)
        return self

    # -- output --------------------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        return {
            name: self._instruments[name].snapshot()
            for name in self.names()
        }

    def report(self) -> str:
        """A printable table of every instrument, histograms with the
        Fig 2b quantiles."""
        lines = ["== metrics"]
        for name in self.names():
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                if instrument.count:
                    lines.append(
                        f"   {name:<40} n={instrument.count:<8} "
                        f"mean={instrument.mean:.4g} "
                        f"p50={instrument.p50:.4g} "
                        f"p90={instrument.p90:.4g} "
                        f"p99={instrument.p99:.4g} "
                        f"max={instrument.max:.4g}"
                    )
                else:
                    lines.append(f"   {name:<40} n=0")
            else:
                value = instrument.value
                shown = f"{value:.6g}" if isinstance(value, float) else value
                lines.append(f"   {name:<40} {shown}")
        return "\n".join(lines)
