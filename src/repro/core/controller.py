"""The MDN controller: the process that listens.

The paper's controller (Figure 1) is "an application listening for
sounds [that] interprets the sound sequence (music) and launches the
appropriate action, e.g., send an OpenFlow Flow-MOD message or open a
previously closed port".  This class is that application:

* it owns a microphone and polls it on a fixed listening interval
  (shorter tones → shorter windows → faster reactions, §3);
* each captured window goes through a
  :class:`~repro.audio.detector.FrequencyDetector`;
* window-level detections are converted to **tone onsets** (a tone
  spanning several windows fires once), and both raw detections and
  onsets are dispatched to subscribed applications;
* it optionally holds the SDN control channel, so applications can
  push Flow-MODs in response to sounds.
"""

from __future__ import annotations

import time as _time
from typing import Callable

import numpy as np

from .. import obs
from ..audio.channel import BLOCK_SEGMENT_SAMPLES, AcousticChannel
from ..audio.detector import DetectionEvent, FrequencyDetector
from ..audio.devices import Microphone
from ..net.controlplane import ControlChannel, ControllerBase, FlowMod, PacketIn
from ..net.sim import PeriodicTimer, Simulator

#: Subscriber signature for per-window detections: (event).
DetectionCallback = Callable[[DetectionEvent], None]


class MDNController(ControllerBase):
    """Sound-driven network controller.

    Parameters
    ----------
    sim, channel:
        Shared clock and air.
    microphone:
        The listening device.
    listen_interval:
        Window length (and polling period), seconds.  100 ms resolves
        the 20 Hz plan grid (10 Hz FFT bins).
    control_channel:
        Optional SDN southbound channel for Flow-MODs.
    prune_every:
        Every this-many processed windows, drop channel tones that
        ended more than ``prune_margin`` seconds ago so long-running
        deployments don't accumulate render cost.  The channel extends
        the keep-cutoff by its echo tail (longest echo tap plus a
        room-scale propagation allowance), so a margin of 0 can never
        drop a tone whose reflections are still audible.  0 disables
        pruning (e.g. when another listener needs deep look-back).

    Windows are heard by :meth:`_hear` (record + detect) and each is
    dispatched by the listen loop below, at its own sim event.  When a
    listen event fires, the controller hears a block of windows in one
    pass: this window and the next windows of its timer grid that end
    before any other event is due (DESIGN.md §5).  The block is stamped
    with the channel's mutation count, so a window whose air changed
    before its turn (say, a subscriber played a tone) is heard again; a
    live deployment, with other events always due, hears blocks of one.
    """

    def __init__(
        self,
        sim: Simulator,
        channel: AcousticChannel,
        microphone: Microphone,
        listen_interval: float = 0.1,
        threshold_db: float = 10.0,
        min_level_db: float = 30.0,
        control_channel: ControlChannel | None = None,
        prune_every: int = 600,
        prune_margin: float = 30.0,
    ) -> None:
        if listen_interval <= 0:
            raise ValueError("listen_interval must be positive")
        self.sim = sim
        self.channel = channel
        self.microphone = microphone
        self.listen_interval = listen_interval
        self.threshold_db = threshold_db
        self.min_level_db = min_level_db
        self.control_channel = control_channel
        self.prune_every = prune_every
        self.prune_margin = prune_margin
        if control_channel is not None:
            control_channel.register_controller(self)

        self._detection_subscribers: dict[float, list[DetectionCallback]] = {}
        self._onset_subscribers: dict[float, list[DetectionCallback]] = {}
        self._any_window_subscribers: list[Callable[[list[DetectionEvent], float], None]] = []
        self._detector: FrequencyDetector | None = None
        self._timer: PeriodicTimer | None = None
        self._previous_window: set[float] = set()
        # Windows heard ahead of their turn, as (end, events) pairs with
        # the next one last, and the channel mutation count they heard.
        self._ahead: list[tuple[float, list[DetectionEvent]]] = []
        self._ahead_stamp = -1
        #: Failover history, appended by the graceful-degradation layer
        #: (:class:`repro.core.apps.failover.FailoverManager`): each
        #: entry records this controller handing a device to the
        #: in-band baseline or taking it back.
        self.failover_events: list = []
        # API-compatible counters, registry-backed (repro.obs): visible
        # in metric reports when observability is enabled, free-floating
        # ints-with-a-name otherwise.
        self._m_windows = obs.counter("controller.windows_processed")
        self._m_detections = obs.counter("controller.detections")
        self._m_onsets = obs.counter("controller.onsets")
        self._m_tones_pruned = obs.counter("controller.tones_pruned")
        self._obs = obs.get_registry()
        if self._obs is not None:
            self._m_window_ms = self._obs.register(
                obs.Histogram("controller.window_ms")
            )
            self._m_events_per_window = self._obs.register(
                obs.Histogram("controller.detections_per_window")
            )

    @property
    def windows_processed(self) -> int:
        """Capture windows processed since construction."""
        return self._m_windows.value

    @property
    def detections(self) -> int:
        """Window-level detections dispatched since construction."""
        return self._m_detections.value

    @property
    def onsets(self) -> int:
        """Tone onsets dispatched since construction."""
        return self._m_onsets.value

    @property
    def tones_pruned(self) -> int:
        """Channel tones dropped by this controller's periodic prune."""
        return self._m_tones_pruned.value

    # ------------------------------------------------------------------
    # Subscription
    # ------------------------------------------------------------------

    def watch(
        self,
        frequencies: list[float],
        on_detection: DetectionCallback | None = None,
        on_onset: DetectionCallback | None = None,
    ) -> None:
        """Subscribe to a set of frequencies.

        ``on_detection`` fires for every capture window containing the
        tone; ``on_onset`` fires only when the tone *starts* (absent in
        the previous window).  Must be called before :meth:`start`
        (the watch list sizes the detector).
        """
        if self._timer is not None:
            raise RuntimeError("watch() must be called before start()")
        if on_detection is None and on_onset is None:
            raise ValueError("need at least one callback")
        for frequency in frequencies:
            key = float(frequency)
            if on_detection is not None:
                self._detection_subscribers.setdefault(key, []).append(on_detection)
            if on_onset is not None:
                self._onset_subscribers.setdefault(key, []).append(on_onset)

    def on_window(
        self, callback: Callable[[list[DetectionEvent], float], None]
    ) -> None:
        """Subscribe to every processed window: ``callback(events, time)``.
        Used by telemetry apps that reason about whole windows."""
        self._any_window_subscribers.append(callback)

    @property
    def watched_frequencies(self) -> list[float]:
        watched = set(self._detection_subscribers) | set(self._onset_subscribers)
        return sorted(watched)

    # ------------------------------------------------------------------
    # Listening loop
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin the periodic listen loop at the current sim time."""
        if self._timer is not None:
            raise RuntimeError("controller already started")
        if not self.watched_frequencies:
            raise RuntimeError("nothing to watch; call watch() first")
        self._detector = FrequencyDetector(
            self.watched_frequencies,
            threshold_db=self.threshold_db,
            min_level_db=self.min_level_db,
        )
        self._timer = self.sim.every(self.listen_interval, self._listen_once)

    def stop(self) -> None:
        """Stop listening.  Clears the onset-suppression state: a tone
        that starts while the controller is stopped must fire an onset
        on the first window after a restart, not be mistaken for a
        continuation of a pre-stop tone."""
        if self._timer is not None:
            self._timer.stop()
            self._timer = None
        self._previous_window = set()
        self._ahead = []

    def _hear(self, starts: list[float],
              ends: list[float]) -> list[list[DetectionEvent]]:
        """Record and detect the windows ``[starts[i], ends[i])``: the
        events of each window of the prefix that one capture block
        takes, sorted by frequency."""
        frames = self.microphone.record_block(self.channel, starts, ends)
        return self._detector.detect_frames(
            frames, self.microphone.sample_rate, starts[: len(frames)]
        )

    def _block(self, start: float, end: float) -> tuple[list[float], list[float]]:
        """The windows to hear now: ``[start, end)``, then the next
        windows of the timer grid that end before the earliest other
        queued event and by the running ``Simulator.run``'s ``until``,
        up to the next prune and as many as one capture block can
        take.  Only this controller's callbacks run before they are
        heard, and the channel's mutation count catches any change they
        make to the air.  A faulted channel is heard one window at a
        time: its fault model counts every tone it mutes, so a window
        heard twice would count twice."""
        most = BLOCK_SEGMENT_SAMPLES // max(
            round((end - start) * self.channel.sample_rate), 1)
        if self.prune_every:
            most = min(most, self.prune_every
                       - self.windows_processed % self.prune_every)
        later, until = self.sim.horizon()
        fired = self._timer.fire_count
        following = self._timer.firing_time(fired + 1)
        if (most < 2 or not following < later or following > until
                or self.channel.faulted):
            return [start], [end]
        ends = self._timer.firing_time(np.arange(fired, fired + most))
        ends = ends[: max(1, min(int(ends.searchsorted(later)),
                                 int(ends.searchsorted(until, "right"))))]
        return (ends - self.listen_interval).tolist(), ends.tolist()

    def _listen_once(self) -> None:
        """Hear the window that just elapsed and dispatch events."""
        observed = self._obs is not None
        wall_start = _time.perf_counter() if observed else 0.0
        end = self.sim.now
        start = end - self.listen_interval
        with obs.span("controller.window", start=start):
            assert self._detector is not None
            ahead = self._ahead
            if not (ahead and ahead[-1][0] == end
                    and self._ahead_stamp == self.channel.mutations):
                self._ahead_stamp = self.channel.mutations
                starts, ends = self._block(start, end)
                ahead[:] = zip(ends, self._hear(starts, ends))
                ahead.reverse()
            events = ahead.pop()[1]
            self._detector.tally(len(events))
            self._m_windows.inc()
            self._m_detections.inc(len(events))
            present = {event.frequency for event in events}
            for event in events:
                for callback in self._detection_subscribers.get(event.frequency, ()):
                    callback(event)
                if event.frequency not in self._previous_window:
                    self._m_onsets.inc()
                    for callback in self._onset_subscribers.get(event.frequency, ()):
                        callback(event)
            for callback in self._any_window_subscribers:
                callback(events, start)
            self._previous_window = present
            if self.prune_every and self.windows_processed % self.prune_every == 0:
                self._m_tones_pruned.inc(
                    self.channel.prune(start, self.prune_margin)
                )
        if observed:
            self._m_window_ms.observe((_time.perf_counter() - wall_start) * 1e3)
            self._m_events_per_window.observe(len(events))

    # ------------------------------------------------------------------
    # SDN southbound
    # ------------------------------------------------------------------

    def send_flow_mod(self, switch_name: str, flow_mod: FlowMod) -> None:
        """Push a FlowMod (requires a control channel)."""
        if self.control_channel is None:
            raise RuntimeError("no control channel attached")
        self.control_channel.send_flow_mod(switch_name, flow_mod)

    def handle_packet_in(self, message: PacketIn) -> None:
        """Default PacketIn handler: ignore (MDN reacts to sound, not
        packets).  Applications needing PacketIns can override or wrap."""
