"""Tone-count telemetry: the shared engine behind Section 5.

Both §5 use cases reduce to the same primitive: count how often each
watched frequency is heard per time interval, then apply a rule —

* *heavy hitter*: one frequency heard "more than a threshold in a
  given time interval";
* *port scan*: many *distinct* frequencies heard within an interval.

:class:`ToneCounter` maintains those per-interval histograms from the
controller's onset stream and exposes both rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ..audio.detector import DetectionEvent
from ..net.stats import TimeSeries, distinct_sorted


@dataclass(frozen=True)
class IntervalCounts:
    """One closed measurement interval."""

    start: float
    end: float
    counts: dict[float, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def distinct(self) -> int:
        return len(self.counts)


class ToneCounter:
    """Per-interval histograms of tone onsets.

    Parameters
    ----------
    interval:
        Measurement interval length, seconds.
    """

    def __init__(self, interval: float = 1.0) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self._current_start: float | None = None
        self._current: dict[float, int] = {}
        self.closed: list[IntervalCounts] = []
        #: Series of per-interval totals (for plots/tests).
        self.totals = TimeSeries("tone_counter.totals")

    def observe(self, event: DetectionEvent) -> None:
        """Feed one tone onset (wire to ``MDNController.watch(on_onset=...)``)."""
        self._roll_to(event.time)
        self._current[event.frequency] = self._current.get(event.frequency, 0) + 1

    def _roll_to(self, time: float) -> None:
        """Advance the active interval to the one containing ``time``.

        Skip-ahead semantics: the elapsed interval is closed only when
        it actually counted something, and the gap up to ``time`` is
        jumped in one step — an hour of silence on a sparse onset
        stream appends *nothing* instead of 3600 empty
        :class:`IntervalCounts`.
        """
        if self._current_start is None:
            self._current_start = self._align(time)
            return
        if time < self._current_start + self.interval:
            return
        if self._current:
            self._close_interval()
        aligned = self._align(time)
        if aligned > self._current_start:
            self._current_start = aligned

    def _align(self, time: float) -> float:
        return (time // self.interval) * self.interval

    def _close_interval(self) -> None:
        assert self._current_start is not None
        end = self._current_start + self.interval
        snapshot = IntervalCounts(self._current_start, end, dict(self._current))
        self.closed.append(snapshot)
        self.totals.record(end, snapshot.total)
        self._current = {}
        self._current_start = end

    def flush(self, now: float, close_partial: bool = False) -> None:
        """Close any interval that has fully elapsed by ``now``.

        With ``close_partial=True`` the still-open trailing interval is
        also closed, as ``[start, now)`` — call this once at the end of
        a run, or onsets from the final sub-interval are never counted
        (they sat in the open histogram forever).  A later observation
        simply starts a fresh aligned interval.
        """
        if self._current_start is None:
            return
        self._roll_to(now)
        if close_partial and self._current and now > self._current_start:
            snapshot = IntervalCounts(self._current_start, now,
                                      dict(self._current))
            self.closed.append(snapshot)
            self.totals.record(now, snapshot.total)
            self._current = {}
            self._current_start = None

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------

    def intervals_with_distinct_over(self, threshold: int) -> list[IntervalCounts]:
        """Intervals where more than ``threshold`` distinct frequencies
        were heard — the scan/superspreader rule."""
        return [
            interval for interval in self.closed if interval.distinct > threshold
        ]

    def count_history(self, frequency: float) -> TimeSeries:
        """Per-interval count series for one frequency."""
        series = TimeSeries(f"tone_counter.{frequency:.0f}Hz")
        for interval in self.closed:
            series.record(interval.end, interval.counts.get(frequency, 0))
        return series


class ToneEventBus:
    """An audio-free stand-in for the controller's subscription surface.

    Duck-types the slice of :class:`~repro.core.controller.MDNController`
    the telemetry apps use — ``watch(frequencies, on_detection=...,
    on_onset=...)`` and ``on_window(callback)`` — but is fed synthetic
    tone presence (e.g. from a workload
    :class:`~repro.net.workload.PresenceSink`) instead of microphone
    capture.  The *real* detector-app logic runs unchanged against it,
    which is how precision/recall is measured at populations far beyond
    what the acoustic pipeline can render.

    Events are buffered as they are pushed and delivered by
    :meth:`dispatch`, grouped into capture windows of ``window``
    seconds: per-event detection callbacks, onset callbacks with the
    controller's suppression rule (a tone present in the immediately
    preceding window is not a new onset), then whole-window callbacks
    with the window's *end* time — matching ``MDNController``'s
    dispatch order and timing.
    """

    def __init__(self, window: float = 0.1) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._detection_subscribers: dict[float, list] = {}
        self._onset_subscribers: dict[float, list] = {}
        self._window_subscribers: list = []
        self._pending_frequencies: list[np.ndarray] = []
        self._pending_times: list[np.ndarray] = []
        self._prev_slot: int | None = None
        self._prev_present: set[float] = set()
        self.events_dispatched = 0
        self.windows_dispatched = 0

    # -- the MDNController surface the apps use ------------------------

    def watch(self, frequencies, on_detection=None, on_onset=None) -> None:
        if on_detection is None and on_onset is None:
            raise ValueError("need at least one callback")
        for frequency in frequencies:
            key = float(frequency)
            if on_detection is not None:
                self._detection_subscribers.setdefault(key, []).append(
                    on_detection
                )
            if on_onset is not None:
                self._onset_subscribers.setdefault(key, []).append(on_onset)

    def on_window(self, callback) -> None:
        self._window_subscribers.append(callback)

    def start(self) -> None:
        """Parity no-op: there is no listen loop to arm."""

    # -- feeding -------------------------------------------------------

    def push(self, frequency: float, time: float) -> None:
        """Buffer one tone presence."""
        self._pending_frequencies.append(
            np.asarray([frequency], dtype=np.float64)
        )
        self._pending_times.append(np.asarray([time], dtype=np.float64))

    def push_batch(self, frequencies: np.ndarray, times: np.ndarray) -> None:
        """Buffer a batch of tone presences (parallel arrays)."""
        if len(frequencies) != len(times):
            raise ValueError("frequencies and times must be parallel")
        if len(frequencies):
            self._pending_frequencies.append(
                np.asarray(frequencies, dtype=np.float64)
            )
            self._pending_times.append(np.asarray(times, dtype=np.float64))

    # -- delivery ------------------------------------------------------

    def dispatch(self, level_db: float = 70.0) -> int:
        """Deliver everything buffered, in capture-window order.

        Call at quiescent points (typically once, after the run): all
        pending events are grouped by window slot, each window's events
        are dispatched oldest-window first, and onset suppression is
        tracked across calls.  Returns the number of events delivered.

        The presences are deduplicated and their onset flags computed
        in array passes; only the callbacks run per event.
        """
        if not self._pending_times:
            return 0
        frequencies = np.concatenate(self._pending_frequencies)
        times = np.concatenate(self._pending_times)
        self._pending_frequencies = []
        self._pending_times = []

        slots = np.floor_divide(times, self.window)
        # A window starts at the rounded product ``slot * window``, and
        # floor division is exact, so a time on a window's start can
        # floor one window early (``0.5 // 0.1 == 4.0`` but
        # ``5 * 0.1 == 0.5``).  Step those up: a time lands in the slot
        # whose ``[slot * window, (slot + 1) * window)`` holds it.
        slots += (slots + 1.0) * self.window <= times
        # One presence per (slot, frequency), packed so that sorting
        # orders them by slot, then frequency.
        heard, code = np.unique(frequencies, return_inverse=True)
        span = len(heard)
        pairs = distinct_sorted(slots.astype(np.int64) * span + code)
        slot, code = np.divmod(pairs, span)
        # A tone heard in the window just before is no new onset.  Each
        # earlier pair sorts below its own, so its search stays in range.
        earlier = pairs - span
        continued = pairs[np.searchsorted(pairs, earlier)] == earlier
        first = slot == slot[0]
        if self._prev_slot is not None and slot[0] == self._prev_slot + 1:
            continued[first] |= np.isin(heard[code[first]],
                                        list(self._prev_present))
        starts = np.flatnonzero(np.diff(slot)) + 1
        bounds = [0, *starts.tolist(), len(pairs)]

        window = self.window
        detection_subscribers = self._detection_subscribers
        onset_subscribers = self._onset_subscribers
        frequency_list = heard[code].tolist()
        onsets = (~continued).tolist()
        window_slots = slot[bounds[:-1]].tolist()
        for lo, hi, window_slot in zip(bounds, bounds[1:], window_slots):
            window_start = window_slot * window
            present = frequency_list[lo:hi]
            # ``tuple.__new__`` builds each record without the named
            # tuple's own ``__new__``, at about half its cost.
            events = list(map(tuple.__new__, repeat(DetectionEvent), zip(
                present, present, repeat(level_db), repeat(window_start))))
            for event, frequency, onset in zip(events, present,
                                               onsets[lo:hi]):
                for callback in detection_subscribers.get(frequency, ()):
                    callback(event)
                if onset:
                    for callback in onset_subscribers.get(frequency, ()):
                        callback(event)
            window_end = window_start + window
            for callback in self._window_subscribers:
                callback(events, window_end)
            self.windows_dispatched += 1
        self._prev_slot = window_slots[-1]
        self._prev_present = set(frequency_list[bounds[-2]:])
        self.events_dispatched += len(pairs)
        return len(pairs)
