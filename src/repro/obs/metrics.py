"""Metric instruments and the hierarchical registry behind ``repro.obs``.

Three instrument kinds cover everything the experiments need to see:

* :class:`Counter` — monotonically increasing totals (events processed,
  memo hits, drops);
* :class:`Gauge` — last-observed values, either pushed (``set``) or
  pulled at snapshot time (:class:`CallbackGauge`, e.g. heap depth);
* :class:`Histogram` — bounded-reservoir distributions with the
  quantiles the paper's Fig 2b reports (p50/p90/p99).

Instruments live in a :class:`MetricsRegistry` under hierarchical
dotted names (``controller.window_ms``, ``channel.memo_hits``).  The
registry renders a human-readable report and snapshots to plain dicts
(which :func:`repro.artifact.export_json` writes to
``.benchmarks/OBS_*.json``).  Instruments can also float
free of any registry — that is how components keep per-instance
counters API-compatible when observability is disabled (see
``repro.obs``).
"""

from __future__ import annotations

import math
from typing import Callable

#: Default histogram reservoir size.  4096 samples bound memory while
#: keeping p99 meaningful for any experiment-scale stream.
DEFAULT_HISTOGRAM_CAPACITY = 4096


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
    """A distribution with running stats and reservoir quantiles.

    Keeps exact ``count``/``sum``/``min``/``max`` over every observation
    plus a bounded ring of the most recent ``capacity`` samples;
    quantiles are computed over the retained ring (exact until the ring
    wraps, recent-biased after).
    """

    __slots__ = ("name", "count", "total", "min", "max",
                 "_samples", "_capacity", "_cursor")

    def __init__(self, name: str,
                 capacity: int = DEFAULT_HISTOGRAM_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: list[float] = []
        self._capacity = capacity
        self._cursor = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._ring_insert(value)

    def _ring_insert(self, value: float) -> None:
        """Put one sample into the bounded ring (no running stats)."""
        if len(self._samples) < self._capacity:
            self._samples.append(value)
        else:
            self._samples[self._cursor] = value
            self._cursor = (self._cursor + 1) % self._capacity

    def retained_samples(self) -> list[float]:
        """The ring's samples in observation order (oldest first)."""
        if len(self._samples) < self._capacity:
            return list(self._samples)
        return self._samples[self._cursor:] + self._samples[:self._cursor]

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another histogram in: exact running stats, then the
        other's retained ring appended in observation order.

        ``count``/``sum``/``min``/``max`` stay exact under any merge;
        quantiles remain exact while the combined retained samples fit
        this histogram's capacity and keep the usual recent bias after.
        Merging an empty histogram is a no-op (an idle shard cannot
        pollute a fleet rollup with its ``inf`` sentinels).
        """
        if other.count == 0:
            return self
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        for value in other.retained_samples():
            self._ring_insert(value)
        return self

    @property
    def mean(self) -> float:
        """Arithmetic mean; 0.0 (never NaN) for an empty histogram."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile over the retained samples.
        An empty histogram reports 0.0 for every quantile."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        position = q * (len(ordered) - 1)
        lower = int(position)
        upper = min(lower + 1, len(ordered) - 1)
        fraction = position - lower
        return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction

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
        if not self.count:
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

    def histogram(self, name: str,
                  capacity: int = DEFAULT_HISTOGRAM_CAPACITY) -> Histogram:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}"
                )
            return existing
        instrument = Histogram(name, capacity)
        self._instruments[name] = instrument
        return instrument

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
        (a de-dup-suffix-tolerant aggregate, e.g. ``channel.memo_hits``)."""
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

        This is the fleet rollup: each shard returns its own registry
        and the driver merges them (in shard order, for deterministic
        histogram rings).  Semantics per kind:

        * counters sum;
        * gauges follow ``gauge_policy`` (``"last"``: merge order wins,
          ``"max"``: peak rollup) — see :meth:`Gauge.merge`;
        * histograms combine exact running stats and append retained
          samples (:meth:`Histogram.merge`);
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
                if isinstance(theirs, Counter):
                    mine = Counter(name)
                elif isinstance(theirs, Gauge):
                    mine = Gauge(name)
                else:
                    mine = Histogram(name, theirs._capacity)
                self._instruments[name] = mine
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
