"""Acoustic-path fault injectors: speakers, air, and microphones.

Two injectors cover the sound side of the taxonomy:

* :class:`AcousticFaults` installs as a channel fault model
  (:meth:`~repro.audio.channel.AcousticChannel.set_fault_model`) and
  bends the *air*: speaker dropout (tones emitted during an outage
  never reach any listener), speaker degradation (an extra per-emitter
  loss in dB), per-emitter clock skew (tones leave late or early), and
  transient noise bursts (one-shot positioned white-noise beds).
* :class:`MicrophoneFaults` installs on one
  :class:`~repro.audio.devices.Microphone` and bends the *capture*:
  a failed capsule records silence (its electrical noise floor
  included), a saturated one hard-clips.

Fault windows are half-open intervals ``[start, end)`` on the shared
simulation clock.  Dropout and degradation use **emission-overlap**
semantics: a tone whose emission interval overlaps an outage is fully
muted (a driver cutting out mid-tone corrupts the whole gated
emission), which keeps the fast and reference render paths trivially
equivalent.  Every schedule call and every scheduled edge invalidates
the channel's memoized window cache, so a cached render can never leak
across a fault state change.
"""

from __future__ import annotations

from ..audio.channel import AcousticChannel, Position, ScheduledTone
from ..audio.devices import Microphone
from ..audio.noise import white_noise
from ..audio.signal import AudioSignal, db_to_amplitude
from ..audio.synth import ToneSpec
from ..net.sim import Simulator
from .harness import FaultCounter, seeded_rng


def _overlaps(window_start: float, window_end: float,
              start: float, end: float) -> bool:
    """Half-open interval overlap."""
    return window_start < end and window_end > start


class AcousticFaults:
    """Channel-side fault model: dropouts, degradation, skew, bursts.

    Installs itself via ``channel.set_fault_model(self)``; the channel
    consults it on every emission (clock skew) and on every rendered
    tone from a faulted emitter (dropout / degradation), with the same
    result as the scalar reference loop, which consults every tone.
    """

    def __init__(self, sim: Simulator, channel: AcousticChannel,
                 seed: int = 0) -> None:
        self.sim = sim
        self.channel = channel
        self.seed = seed
        #: position -> [(start, end), ...] outage windows.
        self._dropouts: dict[Position, list[tuple[float, float]]] = {}
        #: position -> [(start, end, loss_db), ...] degradation windows.
        self._degradations: dict[Position, list[tuple[float, float, float]]] = {}
        #: position -> emission clock offset, seconds (late > 0).
        self._clock_skew: dict[Position, float] = {}
        self._m_dropouts = FaultCounter("speaker_dropouts")
        self._m_degradations = FaultCounter("speaker_degradations")
        self._m_muted = FaultCounter("tones_muted")
        self._m_attenuated = FaultCounter("tones_attenuated")
        self._m_skewed = FaultCounter("tones_skewed")
        self._m_bursts = FaultCounter("noise_bursts")
        self.counters = (
            self._m_dropouts, self._m_degradations, self._m_muted,
            self._m_attenuated, self._m_skewed, self._m_bursts,
        )
        channel.set_fault_model(self)

    # ------------------------------------------------------------------
    # Scheduling API (what experiments call)
    # ------------------------------------------------------------------

    def drop_speaker(self, position: Position, start: float,
                     end: float) -> None:
        """Mute every emission from ``position`` overlapping
        ``[start, end)``."""
        if end <= start:
            raise ValueError(f"dropout window [{start}, {end}) is empty")
        self._dropouts.setdefault(position, []).append((start, end))
        self._on_state_change()
        self._schedule_edges(start, end, self._m_dropouts)

    def degrade_speaker(self, position: Position, start: float, end: float,
                        loss_db: float) -> None:
        """Attenuate emissions from ``position`` overlapping
        ``[start, end)`` by ``loss_db`` (a failing driver, a blocked
        horn).  Overlapping degradations stack additively in dB."""
        if end <= start:
            raise ValueError(f"degradation window [{start}, {end}) is empty")
        if loss_db <= 0:
            raise ValueError(f"loss_db must be positive, got {loss_db}")
        self._degradations.setdefault(position, []).append(
            (start, end, loss_db)
        )
        self._on_state_change()
        self._schedule_edges(start, end, self._m_degradations)

    def set_clock_skew(self, position: Position, skew: float) -> None:
        """Offset every *future* emission from ``position`` by ``skew``
        seconds (a Pi whose clock runs late chirps late)."""
        self._clock_skew[position] = skew
        self._on_state_change()

    def noise_burst(self, start: float, duration: float, level_db: float,
                    position: Position = Position(),
                    label: str = "burst") -> None:
        """A transient positioned white-noise burst (a door slam, a
        fan spin-up) anchored at ``start``; seeded per label."""
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        rng = seeded_rng(self.seed, f"{label}@{start:.6f}")
        signal = white_noise(duration, level_db,
                             sample_rate=self.channel.sample_rate, rng=rng)
        self.channel.add_noise(signal, position, loop=False, start=start)
        self._m_bursts.inc()

    def random_dropouts(self, position: Position, start: float, end: float,
                        rate: float, mean_outage: float = 0.6,
                        label: str = "dropouts") -> list[tuple[float, float]]:
        """Generate an alternating up/down schedule over ``[start, end)``
        whose expected down-time fraction is ``rate``; returns the
        outage windows it scheduled.  Fully determined by
        ``(seed, label)``."""
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"rate must be in [0, 1), got {rate}")
        windows: list[tuple[float, float]] = []
        if rate == 0.0:
            return windows
        rng = seeded_rng(self.seed, label)
        mean_up = mean_outage * (1.0 - rate) / rate
        at = start + float(rng.exponential(mean_up))
        while at < end:
            down = min(at + float(rng.exponential(mean_outage)), end)
            self.drop_speaker(position, at, down)
            windows.append((at, down))
            at = down + float(rng.exponential(mean_up))
        return windows

    # ------------------------------------------------------------------
    # Channel fault-model protocol
    # ------------------------------------------------------------------

    def transform_emission(
        self, start_time: float, spec: ToneSpec, position: Position
    ) -> tuple[float, ToneSpec, Position]:
        """Applied by :meth:`AcousticChannel.play_tone` on every
        scheduled emission — the clock-skew hook."""
        skew = self._clock_skew.get(position)
        if skew:
            self._m_skewed.inc()
            start_time = max(0.0, start_time + skew)
        return start_time, spec, position

    def faulted_positions(self) -> set[Position]:
        """Emitters with a dropout or degradation scheduled.  The
        channel consults :meth:`tone_level_adjust_db` only for their
        tones, so an idle injector costs the render nothing."""
        return self._dropouts.keys() | self._degradations.keys()

    def tone_level_adjust_db(self, tone: ScheduledTone) -> float | None:
        """Consulted per rendered tone: ``None`` mutes it, a float is
        added to its emission level (degradation loss is negative)."""
        for start, end in self._dropouts.get(tone.position, ()):
            if _overlaps(tone.start_time, tone.end_time, start, end):
                self._m_muted.inc()
                return None
        adjust = 0.0
        for start, end, loss_db in self._degradations.get(tone.position, ()):
            if _overlaps(tone.start_time, tone.end_time, start, end):
                adjust -= loss_db
        if adjust:
            self._m_attenuated.inc()
        return adjust

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _on_state_change(self) -> None:
        self.channel.invalidate_render_cache()

    def _schedule_edges(self, start: float, end: float,
                        counter: FaultCounter) -> None:
        """Count the fault when it *activates* on the sim clock, and
        invalidate the render memo at both edges so cached windows can
        never straddle a state change."""

        def activate() -> None:
            counter.inc()
            self._on_state_change()

        if start <= self.sim.now:
            activate()
        else:
            self.sim.schedule_at(start, activate)
        if end > self.sim.now:
            self.sim.schedule_at(end, self._on_state_change)


class MicrophoneFaults:
    """Capture-side fault model for one microphone.

    A capture whose window overlaps a failure interval records silence
    (dead capsule / unplugged cable); one overlapping a clipping
    interval is hard-limited at the given level (saturated preamp).
    """

    def __init__(self, sim: Simulator, microphone: Microphone) -> None:
        self.sim = sim
        self.microphone = microphone
        self._failures: list[tuple[float, float]] = []
        self._clipping: list[tuple[float, float, float]] = []
        self._m_failures = FaultCounter("mic_failures")
        self._m_clip_windows = FaultCounter("mic_clipping_windows")
        self._m_zeroed = FaultCounter("captures_zeroed")
        self._m_clipped = FaultCounter("captures_clipped")
        self.counters = (
            self._m_failures, self._m_clip_windows,
            self._m_zeroed, self._m_clipped,
        )
        microphone.fault_model = self

    def fail(self, start: float, end: float) -> None:
        """Dead capsule over ``[start, end)``: captures record zeros."""
        if end <= start:
            raise ValueError(f"failure window [{start}, {end}) is empty")
        self._failures.append((start, end))
        self._count_at(start, self._m_failures)

    def clip(self, start: float, end: float, clip_level_db: float = 60.0) -> None:
        """Saturated input over ``[start, end)``: samples are limited
        to the amplitude of ``clip_level_db``."""
        if end <= start:
            raise ValueError(f"clipping window [{start}, {end}) is empty")
        self._clipping.append((start, end, clip_level_db))
        self._count_at(start, self._m_clip_windows)

    def _count_at(self, start: float, counter: FaultCounter) -> None:
        if start <= self.sim.now:
            counter.inc()
        else:
            self.sim.schedule_at(start, counter.inc)

    # ------------------------------------------------------------------
    # Microphone fault-model protocol
    # ------------------------------------------------------------------

    def transform_capture(
        self, signal: AudioSignal, start: float, end: float
    ) -> AudioSignal:
        """Applied by :meth:`Microphone.record` to every capture."""
        for fail_start, fail_end in self._failures:
            if _overlaps(start, end, fail_start, fail_end):
                self._m_zeroed.inc()
                return AudioSignal(signal.samples * 0.0, signal.sample_rate)
        clip_amplitude: float | None = None
        for clip_start, clip_end, level_db in self._clipping:
            if _overlaps(start, end, clip_start, clip_end):
                amplitude = db_to_amplitude(level_db)
                if clip_amplitude is None or amplitude < clip_amplitude:
                    clip_amplitude = amplitude
        if clip_amplitude is not None:
            clipped = signal.samples.clip(-clip_amplitude, clip_amplitude)
            self._m_clipped.inc()
            return AudioSignal(clipped, signal.sample_rate)
        return signal
