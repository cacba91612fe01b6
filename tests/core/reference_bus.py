"""The per-presence dispatch loop of :class:`ToneEventBus`, kept as the spec.

``ReferenceToneEventBus.dispatch`` groups the buffered presences by
window slot with one ``lexsort``, then walks every window and every
presence in Python: one :class:`DetectionEvent` per distinct frequency
in ascending order, detection callbacks, onset callbacks unless the
tone was present in the window dispatched just before (one slot
earlier), then the window callbacks with the window's end time.  The
columnar :meth:`ToneEventBus.dispatch` must make the same callbacks in
the same order with the same arguments, return the same counts and
carry the same onset state across calls.
"""

from __future__ import annotations

import numpy as np

from repro.audio.detector import DetectionEvent
from repro.core.telemetry import ToneEventBus


class ReferenceToneEventBus(ToneEventBus):
    """A :class:`ToneEventBus` that dispatches one presence at a time."""

    def dispatch(self, level_db: float = 70.0) -> int:
        if not self._pending_times:
            return 0
        frequencies = np.concatenate(self._pending_frequencies)
        times = np.concatenate(self._pending_times)
        self._pending_frequencies = []
        self._pending_times = []

        slots = np.floor_divide(times, self.window)
        slots += (slots + 1.0) * self.window <= times
        slots = slots.astype(np.int64)
        order = np.lexsort((frequencies, slots))
        frequencies, slots = frequencies[order], slots[order]
        unique_slots, group_starts = np.unique(slots, return_index=True)
        bounds = list(group_starts) + [len(slots)]

        delivered = 0
        for index, slot in enumerate(unique_slots.tolist()):
            group = frequencies[bounds[index]:bounds[index + 1]]
            window_start = slot * self.window
            events = [
                DetectionEvent(f, f, level_db, window_start)
                for f in dict.fromkeys(group.tolist())
            ]
            prior = (self._prev_present
                     if self._prev_slot is not None
                     and slot == self._prev_slot + 1 else set())
            for event in events:
                for callback in self._detection_subscribers.get(
                        event.frequency, ()):
                    callback(event)
                if event.frequency not in prior:
                    for callback in self._onset_subscribers.get(
                            event.frequency, ()):
                        callback(event)
            window_end = window_start + self.window
            for callback in self._window_subscribers:
                callback(events, window_end)
            self._prev_slot = slot
            self._prev_present = {event.frequency for event in events}
            delivered += len(events)
            self.windows_dispatched += 1
        self.events_dispatched += delivered
        return delivered
