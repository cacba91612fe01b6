"""Discrete-event simulation core shared by the network and the air.

The testbed substitution (DESIGN.md §2) hinges on one clock: switches
chirp at simulated times, queues fill at simulated times, and the MDN
controller's microphone windows are cut from the same timeline.  This
module provides that clock: a classic heap-based event scheduler with
cancellable events and periodic timers.

Two observability notes (DESIGN.md §5):

* :class:`PeriodicTimer` re-arms on an **absolute grid** — firing
  ``n`` lands at ``origin + n * interval`` (one float multiply, one
  add) rather than accumulating ``now + interval`` per firing, so a
  300 ms chirp timer stays phase-locked to the grid over hour-long
  runs instead of drifting by the rounding error of thousands of
  chained additions.
* When ``repro.obs`` is enabled before construction, the simulator
  registers ``sim.events_processed``, a pull-gauge for heap depth, a
  peak-depth gauge, and per-callback-site ``sim.callback_ms.*``
  latency histograms; ``run`` is wrapped in a ``sim.run`` trace span
  and the tracer is bound to this clock.  All of it costs one ``is
  not None`` check per event when disabled.

Two layout notes for the event core:

* The heap holds ``(time, sequence, Event)`` tuples, not bare events.
  ``sequence`` is unique, so every sift is a C-level tuple compare that
  settles on ``(time, sequence)`` and never reaches the :class:`Event`
  (ties fire in scheduling order).  :meth:`Simulator.run` and
  :meth:`Simulator.run_to_completion` share one dispatch loop.
* :meth:`Simulator.schedule` routes through :meth:`Simulator.schedule_at`
  rather than pushing onto the heap itself.  ``schedule_at`` is the one
  public boundary every event crosses, so an outside tracer that wraps
  it (the benchmark's per-layer ledger does) sees every event; a
  shortcut in ``schedule`` would silently hide events from it.
"""

from __future__ import annotations

import itertools
import math
import time as _time
from heapq import heappop, heappush
from typing import Any, Callable

from .. import obs


class Event:
    """A scheduled callback, as returned by :meth:`Simulator.schedule`.

    Ordering lives in the heap entry ``(time, sequence, event)``; the
    event itself is never compared.
    """

    __slots__ = ("time", "sequence", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Callable[..., None],
        args: tuple,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (lazy removal from the heap).

        The callback and its arguments are dropped: the heap keeps the
        entry until its time comes, and a callback bound to an object
        that holds the simulator would otherwise keep a reference cycle
        alive for that long."""
        self.cancelled = True
        self.callback = None
        self.args = ()


class Simulator:
    """A minimal, deterministic discrete-event simulator.

    Time is in seconds.  Determinism matters: every experiment in the
    benchmarks must regenerate the same figure series on every run, so
    no wall-clock or unordered-set iteration is involved anywhere.
    (Observability timestamps wall time *around* callbacks but never
    feeds it back into scheduling.)
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._sequence = itertools.count()
        self._events = obs.counter("sim.events_processed")
        self._obs = obs.get_registry()
        if self._obs is not None:
            self._obs.gauge_fn("sim.heap_depth", lambda: len(self._heap))
            self._heap_peak = self._obs.register(obs.Gauge("sim.heap_peak"))
            self._callback_hist = self._obs.register(
                obs.Histogram("sim.callback_ms")
            )
            self._site_hists: dict[str, obs.Histogram] = {}
        tracer = obs.get_tracer()
        if tracer is not None:
            tracer.bind_clock(lambda: self.now)

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for tests and debugging)."""
        return self._events.value

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Run ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        # Not a heap push of its own: schedule_at is the traced boundary.
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Run ``callback(*args)`` at absolute simulation ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past (now={self.now}, requested={time})"
            )
        sequence = next(self._sequence)
        event = Event(time, sequence, callback, args)
        heappush(self._heap, (time, sequence, event))
        if self._obs is not None and len(self._heap) > self._heap_peak.value:
            self._heap_peak.set(len(self._heap))
        return event

    def every(
        self,
        interval: float,
        callback: Callable[..., None],
        *args: Any,
        start: float | None = None,
    ) -> "PeriodicTimer":
        """Run ``callback(*args)`` every ``interval`` seconds.

        The first firing is at ``start`` (absolute; defaults to
        ``now + interval``) and firing ``n`` (0-based) lands exactly at
        ``start + n * interval`` — the timer never drifts off that
        grid.  Returns a handle whose :meth:`stop` cancels future
        firings.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        timer = PeriodicTimer(self, interval, callback, args)
        first = self.now + interval if start is None else start
        timer._arm(first)
        return timer

    def run(self, until: float) -> None:
        """Execute events in order until the clock reaches ``until``.

        The clock is left exactly at ``until`` even if the heap drains
        early, so back-to-back ``run`` calls compose.
        """
        if until < self.now:
            raise ValueError(f"cannot run backwards (now={self.now}, until={until})")
        with obs.span("sim.run", until=until):
            self._dispatch(until, math.inf)
            self.now = until

    def run_to_completion(self, max_events: int = 1_000_000) -> None:
        """Drain the event heap entirely (bounded by ``max_events``)."""
        self._dispatch(math.inf, max_events)
        if self._heap:
            raise RuntimeError(
                f"simulation exceeded {max_events} events; likely a "
                "timer loop that never stops"
            )

    def _dispatch(self, until: float, budget: float) -> None:
        """Execute events due by ``until``, at most ``budget`` of them;
        cancelled events are dropped without using the budget."""
        heap = self._heap
        events = self._events
        observed = self._obs is not None
        while budget > 0 and heap and heap[0][0] <= until:
            time, _sequence, event = heappop(heap)
            if event.cancelled:
                continue
            self.now = time
            events.value += 1
            if observed:
                self._dispatch_observed(event)
            else:
                event.callback(*event.args)
            budget -= 1

    def _dispatch_observed(self, event: Event) -> None:
        """Execute one event with per-callback-site wall timing."""
        start = _time.perf_counter()
        event.callback(*event.args)
        elapsed_ms = (_time.perf_counter() - start) * 1e3
        self._callback_hist.observe(elapsed_ms)
        callback = event.callback
        site = getattr(callback, "__qualname__", None) or type(callback).__name__
        hist = self._site_hists.get(site)
        if hist is None:
            hist = self._obs.histogram(f"sim.callback_ms.{site}")
            self._site_hists[site] = hist
        hist.observe(elapsed_ms)

    def drop_pending(self) -> None:
        """Forget every queued event.  What a finished run leaves on
        the heap (say, a fault edge past the horizon) may hold an
        object that holds this simulator: a cycle only the cyclic GC
        would free."""
        self._heap.clear()

    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for entry in self._heap if not entry[2].cancelled)


class PeriodicTimer:
    """Handle for a repeating event created by :meth:`Simulator.every`.

    Re-arming is grid-based: the ``n``-th firing (1-based) is scheduled
    at ``origin + (n - 1) * interval``, where ``origin`` is the first
    firing time.  The naive ``now + interval`` re-arm accumulates one
    float rounding error per firing (~3.6e-10 s after 10,000 firings of
    a 0.3 s chirp timer, growing linearly), which is enough to walk a
    chirp off the listening-window boundaries it was aligned with over
    an hour-long run.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[..., None],
        args: tuple,
    ) -> None:
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._args = args
        self._event: Event | None = None
        self._stopped = False
        self._origin: float | None = None
        self.fire_count = 0

    def _arm(self, time: float) -> None:
        if self._origin is None:
            self._origin = time
        self._event = self._sim.schedule_at(time, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.fire_count += 1
        self._callback(*self._args)
        if not self._stopped:
            assert self._origin is not None
            self._arm(self._origin + self.fire_count * self.interval)

    def stop(self) -> None:
        """Cancel all future firings."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
