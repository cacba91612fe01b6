"""``repro.obs`` — sim-time observability for the whole stack.

The two vectorization PRs made the hot paths fast; this package makes
them *visible* at production scale without slowing them back down.  It
provides

* a :class:`MetricsRegistry` of hierarchically named counters, gauges
  and histograms (p50/p90/p99 — the Fig 2b quantiles), e.g.
  ``controller.window_ms`` or ``channel.tones_pruned``.  Histograms count
  observations in exact integer bins of :data:`RESOLUTION` (1 µs for
  every ``*_ms`` histogram; sub-µs ``sim.callback_ms.*`` timings read
  in 1 µs steps), so merging them is addition and any partition of a
  run merges to the same result;
* a bounded ring-buffer :class:`Tracer` whose spans carry both sim time
  and ``perf_counter`` wall time;
* a **zero-overhead-when-disabled hook API**: components grab their
  handles at construction, and every gated site costs one ``is not
  None`` check when observability is off.

Usage::

    import repro.obs as obs

    registry, tracer = obs.enable()     # before building the testbed
    run_experiment()
    print(registry.report())
    print(tracer.report())
    export_json(registry.snapshot() | {"trace": tracer.snapshot()},
                ".benchmarks/OBS_fig5ab.json")   # repro.artifact
    obs.disable()

Enablement is process-global and must happen **before** the observed
components are constructed (they capture their instruments in
``__init__``).  The ``python -m repro obs <figure>`` CLI verb does
exactly this around any experiment.

Components keep API-compatible per-instance counters (e.g.
``Simulator.events_processed``) through :func:`counter`: when disabled
it hands out a free-floating :class:`Counter` (as cheap as the plain
int it replaced); when enabled, the same counter is also registered —
with name de-duplication — so it shows up in reports and exports.
"""

from __future__ import annotations

from .metrics import (
    RESOLUTION,
    CallbackGauge,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .trace import DEFAULT_TRACE_CAPACITY, Span, Tracer

__all__ = [
    "CallbackGauge",
    "Counter",
    "DEFAULT_TRACE_CAPACITY",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RESOLUTION",
    "Span",
    "Tracer",
    "counter",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "get_registry",
    "get_tracer",
    "histogram",
    "span",
]

_registry: MetricsRegistry | None = None
_tracer: Tracer | None = None


def enable(registry: MetricsRegistry | None = None,
           tracer: Tracer | None = None) -> tuple[MetricsRegistry, Tracer]:
    """Install (or reuse) the process-global registry + tracer.

    Idempotent: enabling while already enabled returns the current
    pair.  Call *before* constructing the components to observe.
    """
    global _registry, _tracer
    if _registry is None:
        _registry = registry if registry is not None else MetricsRegistry()
    if _tracer is None:
        _tracer = tracer if tracer is not None else Tracer()
    return _registry, _tracer


def disable() -> None:
    """Tear down global observability (already-wired components keep
    their free-standing instruments but stop being globally visible)."""
    global _registry, _tracer
    _registry = None
    _tracer = None


def enabled() -> bool:
    return _registry is not None


def get_registry() -> MetricsRegistry | None:
    """The global registry, or None when observability is disabled."""
    return _registry


def get_tracer() -> Tracer | None:
    """The global tracer, or None when observability is disabled."""
    return _tracer


def counter(name: str) -> Counter:
    """A per-call-site counter: registered (with de-duplicated name)
    when enabled, free-floating — but fully functional — otherwise."""
    if _registry is None:
        return Counter(name)
    return _registry.register(Counter(name))


def gauge(name: str) -> Gauge:
    """A gauge, registered when enabled (see :func:`counter`)."""
    if _registry is None:
        return Gauge(name)
    return _registry.register(Gauge(name))


def histogram(name: str) -> Histogram:
    """A histogram, registered when enabled (see :func:`counter`)."""
    if _registry is None:
        return Histogram(name)
    return _registry.register(Histogram(name))


class _NullSpan:
    """Shared no-op context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


def span(name: str, **attrs):
    """A tracer span when enabled, a shared no-op otherwise."""
    if _tracer is None:
        return _NULL_SPAN
    return _tracer.span(name, **attrs)
