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

from .. import obs
from ..audio.channel import AcousticChannel
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

    Each window is heard by :meth:`_hear` (record + detect) and then
    dispatched by the one listen loop below; listeners with other ears
    (:class:`~repro.core.array.MicrophoneArray`) override only
    :meth:`_hear`.  Co-located listeners share the channel's per-window
    render memo: the air is mixed once per ``(position, window)``.
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
        self._spectrum_sinks: list[Callable] = []
        self._detector: FrequencyDetector | None = None
        self._timer: PeriodicTimer | None = None
        self._previous_window: set[float] = set()
        #: Current frequency-plan epoch, stamped onto every dispatched
        #: detection.  Bumped by the spectrum-agility layer on each
        #: PLAN_COMMIT (:meth:`migrate_watch`); 0 until a migration
        #: ever happens, in which case events keep their default tag
        #: and the hot path pays nothing.
        self.epoch = 0
        #: Make-before-break state: ``old_frequency -> (new_frequency,
        #: emission_epoch)``.  While an alias is live the detector
        #: still listens on the old tone and events heard there are
        #: re-attributed to the relocated plan entry, tagged with the
        #: epoch the tone was emitted under.
        self._aliases: dict[float, tuple[float, int]] = {}
        #: Frequencies listened to ahead of a commit (PLAN_PREPARE
        #: pre-listening) that have no subscribers yet.
        self._extra_watch: set[float] = set()
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
        self._detector = None  # force rebuild

    def on_window(
        self, callback: Callable[[list[DetectionEvent], float], None]
    ) -> None:
        """Subscribe to every processed window: ``callback(events, time)``.
        Used by telemetry apps that reason about whole windows."""
        self._any_window_subscribers.append(callback)

    def add_spectrum_sink(self, callback: Callable) -> None:
        """Subscribe ``callback(spectrum, time)`` to every window
        spectrum the detector computes — the interference sentinel's
        tap.  No extra FFT is performed; the sink sees the same spectrum
        detection already uses."""
        self._spectrum_sinks.append(callback)
        self._rebuild_live()

    @property
    def watched_frequencies(self) -> list[float]:
        watched = set(self._detection_subscribers) | set(self._onset_subscribers)
        return sorted(watched)

    @property
    def live_frequencies(self) -> list[float]:
        """Everything the detector actually listens for: subscribed
        frequencies plus handover aliases and make-before-break
        extras (:meth:`extend_watch`)."""
        live = set(self.watched_frequencies)
        live.update(self._aliases)
        live.update(self._extra_watch)
        return sorted(live)

    # ------------------------------------------------------------------
    # Runtime retuning (spectrum agility)
    # ------------------------------------------------------------------

    def extend_watch(self, frequencies: list[float]) -> None:
        """Start listening on additional frequencies *now*, without any
        subscribers — the make-before-break half-step: the controller
        hears the post-migration tones before any emitter switches, so
        a tone emitted the instant after PLAN_COMMIT cannot fall into a
        deaf window.  Safe to call while the listen loop is running."""
        for frequency in frequencies:
            key = float(frequency)
            if key not in self._detection_subscribers and \
                    key not in self._onset_subscribers:
                self._extra_watch.add(key)
        self._rebuild_live()

    def retract_watch(self, frequencies: list[float]) -> None:
        """Stop pre-listening on frequencies added by
        :meth:`extend_watch` that never gained subscribers — the
        rollback of an aborted migration.  Frequencies with subscribers
        are untouched."""
        changed = False
        for frequency in frequencies:
            key = float(frequency)
            if key in self._extra_watch:
                self._extra_watch.discard(key)
                changed = True
        if changed:
            self._rebuild_live()

    def migrate_watch(
        self,
        moves: dict[float, float],
        epoch: int,
        handover: float,
    ) -> None:
        """Commit a frequency migration on the listening side.

        For each ``old -> new`` entry the subscribers keyed on ``old``
        move to ``new``, and ``old`` stays on the detector's watch list
        for ``handover`` seconds as an *alias*: a tone still sounding
        (or in flight) on the old frequency is re-attributed to ``new``
        and tagged with the pre-commit epoch, so zero telemetry events
        are lost or misattributed across the commit boundary.  Onset
        suppression follows the move — a tone spanning the commit does
        not fire a duplicate onset on the new key.
        """
        if handover < 0:
            raise ValueError("handover must be >= 0")
        old_epoch = self.epoch
        for old, new in moves.items():
            old = float(old)
            new = float(new)
            if old == new:
                continue
            for subscribers in (self._detection_subscribers,
                                self._onset_subscribers):
                callbacks = subscribers.pop(old, None)
                if callbacks:
                    subscribers.setdefault(new, []).extend(callbacks)
            self._extra_watch.discard(new)
            self._aliases[old] = (new, old_epoch)
            if old in self._previous_window:
                self._previous_window.discard(old)
                self._previous_window.add(new)
        self.epoch = epoch
        self._rebuild_live()
        if self._aliases:
            self.sim.schedule_at(
                self.sim.now + handover, self._end_handover,
                tuple(float(old) for old in moves),
            )

    def _end_handover(self, old_frequencies: tuple[float, ...]) -> None:
        """Break half of make-before-break: stop listening on the
        vacated frequencies once the handover window has elapsed."""
        changed = False
        for old in old_frequencies:
            if self._aliases.pop(old, None) is not None:
                changed = True
            self._previous_window.discard(old)
        if changed:
            self._rebuild_live()

    def _rebuild_live(self) -> None:
        """Refresh the detector to the current watch set; lazy when the
        listen loop is not running."""
        if self._timer is not None:
            self._build_detector()
        else:
            self._detector = None

    # ------------------------------------------------------------------
    # Listening loop
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin the periodic listen loop at the current sim time."""
        if self._timer is not None:
            raise RuntimeError("controller already started")
        if not self.watched_frequencies:
            raise RuntimeError("nothing to watch; call watch() first")
        self._build_detector()
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

    def _build_detector(self) -> None:
        watch = set(self.live_frequencies)
        sink = None
        if self._spectrum_sinks:
            sinks = tuple(self._spectrum_sinks)
            if len(sinks) == 1:
                sink = sinks[0]
            else:
                def sink(spectrum, time, _sinks=sinks):
                    for each in _sinks:
                        each(spectrum, time)
        self._detector = FrequencyDetector(
            sorted(watch),
            threshold_db=self.threshold_db,
            min_level_db=self.min_level_db,
            spectrum_sink=sink,
        )

    def _translate_events(
        self, events: list[DetectionEvent]
    ) -> list[DetectionEvent]:
        """Apply migration aliases and epoch tags to a window's events.

        Only runs once a migration has ever touched this controller
        (aliases live, or epoch > 0); the static-plan hot path never
        reaches here.  When both the old and the new frequency of one
        move are heard in the same window (the emitter switched
        mid-window), the stronger detection wins — one event per plan
        entry, as :meth:`FrequencyDetector.detect` guarantees.
        """
        merged: dict[float, DetectionEvent] = {}
        for event in events:
            alias = self._aliases.get(event.frequency)
            if alias is not None:
                new_frequency, emission_epoch = alias
                event = DetectionEvent(
                    new_frequency, event.measured_frequency,
                    event.level_db, event.time, emission_epoch,
                )
            elif event.epoch != self.epoch:
                event = DetectionEvent(
                    event.frequency, event.measured_frequency,
                    event.level_db, event.time, self.epoch,
                )
            existing = merged.get(event.frequency)
            if existing is None or event.level_db > existing.level_db:
                merged[event.frequency] = event
        return sorted(merged.values(), key=lambda e: e.frequency)

    def _hear(self, start: float, end: float) -> list[DetectionEvent]:
        """Record ``[start, end)`` and detect: the window's events,
        sorted by frequency."""
        window = self.microphone.record(self.channel, start, end)
        return self._detector.detect(window, start)

    def _listen_once(self) -> None:
        """Hear the window that just elapsed and dispatch events."""
        observed = self._obs is not None
        wall_start = _time.perf_counter() if observed else 0.0
        end = self.sim.now
        start = end - self.listen_interval
        with obs.span("controller.window", start=start):
            assert self._detector is not None
            events = self._hear(start, end)
            if self._aliases or self.epoch:
                events = self._translate_events(events)
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
