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

* A heap entry is the list ``[time, sequence, callback, args]``, which
  is also the handle ``schedule_at`` returns: no other per-event object
  exists.  ``sequence`` is unique, so every sift is a C-level list
  compare that settles on ``(time, sequence)`` (ties fire in scheduling
  order).  :meth:`Simulator.cancel` clears the callback and args, and
  dispatch skips an entry whose callback is ``None``.
* :meth:`Simulator.schedule` and the per-packet callers (link, host
  sink, traffic sources) call :meth:`Simulator.schedule_at` directly
  rather than pushing onto the heap.  It is the one public boundary
  every event crosses, so an outside tracer that wraps it (the
  benchmark's per-layer ledger does) sees every event; a shortcut
  around it would hide events from it.
"""

from __future__ import annotations

import itertools
import math
import time as _time
from heapq import heappop, heappush
from typing import Any, Callable

from .. import obs


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
        self._heap: list[list] = []
        self._sequence = itertools.count()
        # The ``until`` of the dispatch loop that is running.
        self._until = -math.inf
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
    ) -> list:
        """Run ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        # Not a heap push of its own: schedule_at is the traced boundary.
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> list:
        """Run ``callback(*args)`` at absolute simulation ``time``.

        Returns the heap entry ``[time, sequence, callback, args]`` as
        the handle for :meth:`cancel`; treat it as read-only."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past (now={self.now}, requested={time})"
            )
        entry = [time, next(self._sequence), callback, args]
        heappush(self._heap, entry)
        if self._obs is not None and len(self._heap) > self._heap_peak.value:
            self._heap_peak.set(len(self._heap))
        return entry

    def cancel(self, handle: list) -> None:
        """Prevent a scheduled event from firing (lazy removal).  The
        heap keeps the entry until its time comes, so the callback and
        its arguments are dropped now: a callback bound to an object
        that holds the simulator would keep a cycle alive that long."""
        handle[2] = None
        handle[3] = ()

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
            self._dispatch(until)
            self.now = until

    def horizon(self) -> tuple[float, float]:
        """``(next, until)`` for the event being dispatched: the time of
        the earliest queued entry (``inf`` when none is queued) and the
        ``until`` of the running :meth:`run`.  Before ``next``, and no
        later than ``until``, nothing runs but what the running callback
        schedules, so a callback may work ahead on the times up to
        then."""
        heap = self._heap
        return (heap[0][0] if heap else math.inf), self._until

    def _dispatch(self, until: float) -> None:
        """Execute events due by ``until``; cancelled events are
        dropped uncounted."""
        heap = self._heap
        observed = self._obs is not None
        count = 0
        outer, self._until = self._until, until
        try:
            while heap and heap[0][0] <= until:
                time, _sequence, callback, args = heappop(heap)
                if callback is None:
                    continue
                self.now = time
                count += 1
                if observed:
                    self._dispatch_observed(callback, args)
                else:
                    callback(*args)
        finally:
            self._events.value += count
            self._until = outer

    def _dispatch_observed(self, callback: Callable[..., None],
                           args: tuple) -> None:
        """Execute one event with per-callback-site wall timing."""
        start = _time.perf_counter()
        callback(*args)
        elapsed_ms = (_time.perf_counter() - start) * 1e3
        self._callback_hist.observe(elapsed_ms)
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
        return sum(1 for entry in self._heap if entry[2] is not None)


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
        self._event: list | None = None
        self._stopped = False
        self._origin: float | None = None
        self.fire_count = 0

    def firing_time(self, n):
        """When firing ``n`` (1-based; an int, or an integer array for
        several) lands: ``origin + (n - 1) * interval``, the time the
        timer arms it for."""
        return self._origin + (n - 1) * self.interval

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
            self._arm(self.firing_time(self.fire_count + 1))

    def stop(self) -> None:
        """Cancel all future firings."""
        self._stopped = True
        if self._event is not None:
            self._sim.cancel(self._event)
