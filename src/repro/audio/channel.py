"""The air between speakers and microphones.

The paper's out-of-band channel is literal air: speakers bolted to
switches and servers, microphones near the MDN controller.  This module
models that medium deterministically so experiments are reproducible:

* **Emitters** are positioned in a room.  Tones are *scheduled* on the
  channel (start time + :class:`~repro.audio.synth.ToneSpec`), so the
  network simulator can chirp at simulated times and the microphone
  hears a causally consistent mixture.
* **Propagation** applies spherical spreading (−20·log10(d) dB relative
  to 1 m) and speed-of-sound delay.
* **Noise sources** are pre-rendered positioned signals (ambience,
  songs, fan wash) mixed into every capture.

Rendering is pull-based: nothing is synthesized until a microphone asks
for a window, and any window can be re-rendered bit-identically.

Rendering is also the synthesis-side hot path (DESIGN.md §5): every
``Microphone.record`` lands in :meth:`AcousticChannel.render_at`, and a
controller-scale study (XEXT9, up to 200 chirping devices) calls it
hundreds of times per simulated minute.  ``render_at`` therefore runs a
vectorized fast path built around

* an **interval index** over scheduled tones (parallel arrays sorted by
  end time, maintained incrementally by :meth:`play_tone` and
  :meth:`prune`), so a 50–100 ms capture bisects straight to the tones
  that can overlap the window instead of scanning the full history;
* **caches** for everything that is re-derived per window otherwise:
  raised-cosine envelopes (memoized in :mod:`repro.audio.synth`),
  per-``(listener, emitter)`` distance/delay/loss geometry, per-bed
  noise gains, and the ``arange`` ramps behind looping-bed index plans;
* **flat tone synthesis**: every audible tone segment of the window
  (echo taps included) is laid end to end in one array, synthesized
  with a single ``np.sin`` and summed into the mix by ``np.bincount``;
* a bounded **window render memo** keyed by ``(listener, start, end)``
  so co-located microphone-array stations and repeated polls of the
  same window reuse the mixed buffer.  ``play_tone`` / ``add_noise`` /
  ``clear`` / ``prune`` invalidate the memo.

:meth:`render_at_reference` keeps the original per-tone scalar loop;
``tests/audio/test_channel_equivalence.py`` pins the fast path to it
bit for bit: both evaluate the same IEEE operations per sample and sum
each sample's contributions in the same (tone, echo tap) order.
"""

from __future__ import annotations

import math
import time as _time
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .. import obs
from .signal import DEFAULT_SAMPLE_RATE, AudioSignal, db_to_amplitude
from .synth import ToneSpec, raised_cosine_envelope, signalling_ramp

#: Speed of sound in air at ~20 °C, m/s.
SPEED_OF_SOUND = 343.0

#: Closest distance used for attenuation math; prevents the inverse
#: law from diverging when devices are modelled as co-located.
MIN_DISTANCE = 0.1

#: Propagation-delay allowance added to the prune keep-cutoff: the
#: flight time across a generous machine-room diagonal (~50 m), so a
#: tone whose *emission* ended before the cutoff but whose wavefront is
#: still crossing the room cannot be dropped mid-capture.
PRUNE_PROPAGATION_ALLOWANCE = 50.0 / SPEED_OF_SOUND

#: Window render memo capacity (windows).  128 comfortably covers a
#: microphone array's stations re-polling one shared window plus the
#: look-back of a few co-located listeners.
WINDOW_CACHE_SIZE = 128

#: Geometry cache flush threshold: (listener, emitter) position pairs.
GEOMETRY_CACHE_SIZE = 65536


@lru_cache(maxsize=256)
def _sample_ramp(count: int) -> np.ndarray:
    """A cached, read-only ``arange(count)`` used by index plans."""
    ramp = np.arange(count)
    ramp.setflags(write=False)
    return ramp


@dataclass(frozen=True)
class Position:
    """A point in the room, metres."""

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def distance_to(self, other: "Position") -> float:
        return math.dist((self.x, self.y, self.z), (other.x, other.y, other.z))


def propagation_loss_db(distance: float) -> float:
    """Spherical-spreading loss relative to 1 m, in dB (>= 0)."""
    return max(0.0, 20.0 * math.log10(max(distance, MIN_DISTANCE)))


@dataclass(frozen=True)
class ScheduledTone:
    """A tone emission scheduled on the channel timeline."""

    start_time: float
    spec: ToneSpec
    position: Position

    @property
    def end_time(self) -> float:
        return self.start_time + self.spec.duration


@dataclass(frozen=True)
class NoiseBed:
    """A pre-rendered positioned noise signal.

    The signal loops if a capture window extends past its end, so a
    short rendered ambience can cover an arbitrarily long experiment.
    ``start`` anchors the bed's first sample at that emission time
    (default 0); a negative anchor lets a source pre-roll so its sound
    is already in flight when a capture begins at t = 0.
    """

    signal: AudioSignal
    position: Position
    loop: bool = True
    start: float = 0.0


class AcousticChannel:
    """The shared air: schedules emissions, renders microphone captures.

    Parameters
    ----------
    sample_rate:
        Sample rate used for all rendering.
    enable_propagation_delay:
        Model speed-of-sound delay (a few ms at room scale).  On by
        default; tests that want exact timing can disable it.
    echo_taps:
        Early-reflection model: each ``(extra_delay_s, extra_loss_db)``
        tap adds a delayed, attenuated copy of every tone (walls,
        racks, raised floors).  Real rooms smear tones in time; the
        detector must tolerate it.  Applies to point-source tones only
        — noise beds are already diffuse.
    """

    def __init__(
        self,
        sample_rate: int = DEFAULT_SAMPLE_RATE,
        enable_propagation_delay: bool = True,
        echo_taps: tuple[tuple[float, float], ...] = (),
    ) -> None:
        for delay, loss_db in echo_taps:
            if delay <= 0:
                raise ValueError(f"echo delay must be positive, got {delay}")
            if loss_db < 0:
                raise ValueError(f"echo loss must be >= 0 dB, got {loss_db}")
        self.sample_rate = sample_rate
        self.enable_propagation_delay = enable_propagation_delay
        self.echo_taps = tuple(echo_taps)
        self._max_echo_delay = max(
            (delay for delay, _loss in echo_taps), default=0.0
        )
        self._tones: list[ScheduledTone] = []
        self._noise_beds: list[NoiseBed] = []
        # Interval index: parallel arrays sorted by tone end time, plus
        # the schedule sequence number that keeps fast-path accumulation
        # in exact insertion order (the reference iteration order).
        self._index_ends: list[float] = []
        self._index_starts: list[float] = []
        self._index_entries: list[tuple[int, ScheduledTone]] = []
        self._sequence = 0
        #: Reference counts of distinct emitter positions, used to bound
        #: the candidate horizon by the worst-case propagation delay.
        self._positions: dict[Position, int] = {}
        #: Bumped whenever the *set* of distinct positions changes;
        #: versions stale per-listener worst-case-delay memos.
        self._position_version = 0
        # listener -> (position_version, worst propagation delay)
        self._max_delay_cache: dict[Position, tuple[int, float]] = {}
        # (listener, source) -> (distance, delay_s, loss_db)
        self._geometry: dict[tuple[Position, Position], tuple[float, float, float]] = {}
        # id(bed signal), positions -> (gain, delay_s); beds are few.
        self._bed_geometry: dict[tuple[Position, Position], tuple[float, float]] = {}
        # (listener, start, end) -> rendered mix (read-only ndarray).
        self._window_cache: OrderedDict[
            tuple[Position, float, float], np.ndarray
        ] = OrderedDict()
        #: Optional fault model (repro.faults): consulted per emission
        #: and per rendered tone.  ``None`` keeps both render paths on
        #: their original arithmetic, bit for bit.
        self._fault_model = None
        # Registry-backed, API-compatible memo stats (repro.obs).
        self._m_memo_hits = obs.counter("channel.memo_hits")
        self._m_memo_misses = obs.counter("channel.memo_misses")
        self._m_pruned = obs.counter("channel.tones_pruned")
        self._obs = obs.get_registry()
        if self._obs is not None:
            self._m_render_ms = self._obs.register(
                obs.Histogram("channel.render_ms")
            )
            self._m_scanned = self._obs.register(
                obs.Counter("channel.tones_scanned")
            )
            self._m_bisected = self._obs.register(
                obs.Counter("channel.tones_bisected_past")
            )
            self._obs.gauge_fn("channel.scheduled_tones",
                               lambda: len(self._tones))

    @property
    def render_cache_hits(self) -> int:
        """Window-memo hits served by :meth:`render_at`."""
        return self._m_memo_hits.value

    @property
    def render_cache_misses(self) -> int:
        """Window renders that had to be synthesized cold."""
        return self._m_memo_misses.value

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def set_fault_model(self, model) -> None:
        """Install (or clear, with ``None``) a fault model.

        The model sees every emission via ``transform_emission(start,
        spec, position)`` (clock skew) and every rendered tone via
        ``tone_level_adjust_db(tone)`` — ``None`` mutes the tone
        (speaker dropout), a float shifts its level (degradation).
        Both render paths consult it identically, so the fast/reference
        equivalence holds under any fault state.  Installing, clearing,
        and every fault state change must invalidate the window memo.
        """
        self._fault_model = model
        self.invalidate_render_cache()

    def play_tone(
        self, start_time: float, spec: ToneSpec, position: Position = Position()
    ) -> ScheduledTone:
        """Schedule a tone emission; returns the schedule record."""
        if self._fault_model is not None:
            start_time, spec, position = self._fault_model.transform_emission(
                start_time, spec, position
            )
        if start_time < 0:
            raise ValueError(f"start_time must be non-negative, got {start_time}")
        if spec.frequency >= self.sample_rate / 2:
            raise ValueError(
                f"tone frequency {spec.frequency} exceeds channel Nyquist "
                f"limit ({self.sample_rate / 2} Hz)"
            )
        tone = ScheduledTone(start_time, spec, position)
        self._tones.append(tone)
        self._index_insert(tone)
        count = self._positions.get(position, 0)
        self._positions[position] = count + 1
        if count == 0:
            self._position_version += 1
        self.invalidate_render_cache()
        return tone

    def add_noise(
        self,
        signal: AudioSignal,
        position: Position = Position(),
        loop: bool = True,
        start: float = 0.0,
    ) -> NoiseBed:
        """Attach a pre-rendered noise bed to the channel.

        ``start`` anchors the bed's first sample at that emission time;
        pass a negative value to pre-roll a source so its sound has
        already crossed the room when captures begin at t = 0.
        """
        if signal.sample_rate != self.sample_rate:
            raise ValueError(
                f"noise sample rate {signal.sample_rate} != channel "
                f"rate {self.sample_rate}"
            )
        if len(signal) == 0:
            raise ValueError("noise bed must not be empty")
        bed = NoiseBed(signal, position, loop, start)
        self._noise_beds.append(bed)
        self.invalidate_render_cache()
        return bed

    @property
    def scheduled_tones(self) -> tuple[ScheduledTone, ...]:
        return tuple(self._tones)

    def clear(self) -> None:
        """Drop all scheduled tones and noise beds."""
        self._tones.clear()
        self._noise_beds.clear()
        self._index_ends.clear()
        self._index_starts.clear()
        self._index_entries.clear()
        self._positions.clear()
        self._position_version += 1
        self.invalidate_render_cache()

    @property
    def echo_tail(self) -> float:
        """How long past its end a tone can remain audible: the longest
        echo tap plus a room-scale propagation-delay allowance."""
        tail = self._max_echo_delay
        if self.enable_propagation_delay:
            tail += PRUNE_PROPAGATION_ALLOWANCE
        return tail

    def prune(self, before: float, margin: float = 1.0) -> int:
        """Forget tones that ended more than ``margin`` seconds before
        ``before``.

        Rendering sums over every scheduled tone, so a long-running
        deployment (liveness heartbeats for hours) would otherwise
        degrade linearly with history.  The keep-cutoff is extended by
        :attr:`echo_tail` — echo taps (and in-flight propagation at
        room scale) keep a tone audible past its scheduled end, and a
        pruned tone's echo must not vanish mid-capture.  Pruned audio
        can no longer be re-rendered; listeners that look back further
        than ``margin`` must prune accordingly.  Returns the number of
        tones dropped.
        """
        keep_cutoff = before - margin - self.echo_tail
        kept = [tone for tone in self._tones if tone.end_time >= keep_cutoff]
        dropped = len(self._tones) - len(kept)
        if dropped:
            self._tones = kept
            # The index is sorted by end time, so the drop is a prefix.
            split = bisect_left(self._index_ends, keep_cutoff)
            for _seq, tone in self._index_entries[:split]:
                count = self._positions[tone.position] - 1
                if count:
                    self._positions[tone.position] = count
                else:
                    del self._positions[tone.position]
                    self._position_version += 1
            del self._index_ends[:split]
            del self._index_starts[:split]
            del self._index_entries[:split]
            self._m_pruned.inc(dropped)
        self.invalidate_render_cache()
        return dropped

    def invalidate_render_cache(self) -> None:
        """Drop memoized window renders (geometry and envelope caches
        are pure and stay).  Scheduling operations call this
        automatically; benchmarks use it to time cold renders."""
        self._window_cache.clear()

    def _index_insert(self, tone: ScheduledTone) -> None:
        """Add one tone to the end-time-sorted interval index."""
        at = bisect_right(self._index_ends, tone.end_time)
        self._index_ends.insert(at, tone.end_time)
        self._index_starts.insert(at, tone.start_time)
        self._index_entries.insert(at, (self._sequence, tone))
        self._sequence += 1

    def _max_propagation_delay(self, listener: Position) -> float:
        """Worst-case flight time from any scheduled emitter position
        to ``listener`` (memoized per position-set version)."""
        if not (self.enable_propagation_delay and self._positions):
            return 0.0
        cached = self._max_delay_cache.get(listener)
        if cached is not None and cached[0] == self._position_version:
            return cached[1]
        worst = max(
            self._geometry_for(listener, position)[1]
            for position in self._positions
        )
        if len(self._max_delay_cache) >= GEOMETRY_CACHE_SIZE:
            self._max_delay_cache.clear()
        self._max_delay_cache[listener] = (self._position_version, worst)
        return worst

    # ------------------------------------------------------------------
    # Geometry caches
    # ------------------------------------------------------------------

    def _geometry_for(
        self, listener: Position, source: Position
    ) -> tuple[float, float, float]:
        """Cached ``(distance, propagation delay, spreading loss)``."""
        key = (listener, source)
        geometry = self._geometry.get(key)
        if geometry is None:
            distance = listener.distance_to(source)
            delay = (
                distance / SPEED_OF_SOUND
                if self.enable_propagation_delay
                else 0.0
            )
            geometry = (distance, delay, propagation_loss_db(distance))
            if len(self._geometry) >= GEOMETRY_CACHE_SIZE:
                self._geometry.clear()
            self._geometry[key] = geometry
        return geometry

    def _bed_geometry_for(
        self, listener: Position, bed: NoiseBed
    ) -> tuple[float, float]:
        """Cached ``(linear gain, propagation delay)`` for a noise bed.

        Looping beds are diffuse, phase-free ambience, so they keep the
        delay-free approximation; non-looping beds are positioned
        one-shot sources (e.g. a fan that fails and *stays* silent) and
        get speed-of-sound delay like tones do.
        """
        key = (listener, bed.position)
        geometry = self._bed_geometry.get(key)
        if geometry is None:
            distance = listener.distance_to(bed.position)
            gain = 10.0 ** (-propagation_loss_db(distance) / 20.0)
            delay = (
                distance / SPEED_OF_SOUND
                if self.enable_propagation_delay
                else 0.0
            )
            if len(self._bed_geometry) >= GEOMETRY_CACHE_SIZE:
                self._bed_geometry.clear()
            geometry = (gain, delay)
            self._bed_geometry[key] = geometry
        return geometry

    # ------------------------------------------------------------------
    # Rendering — vectorized fast path
    # ------------------------------------------------------------------

    def render_at(self, listener: Position, start: float, end: float) -> AudioSignal:
        """Pressure signal arriving at ``listener`` during ``[start, end)``.

        Equivalent to :meth:`render_at_reference` (the scalar per-tone
        loop) but served through the interval index, batched synthesis
        and the window memo.  Repeated renders of the same
        ``(listener, start, end)`` return the same (read-only) buffer.
        """
        if end < start:
            raise ValueError(f"end ({end}) must be >= start ({start})")
        key = (listener, start, end)
        cached = self._window_cache.get(key)
        if cached is not None:
            self._window_cache.move_to_end(key)
            self._m_memo_hits.inc()
            return AudioSignal(cached, self.sample_rate)
        self._m_memo_misses.inc()
        observed = self._obs is not None
        wall_start = _time.perf_counter() if observed else 0.0
        count = int(round((end - start) * self.sample_rate))
        mix = np.zeros(count)
        if count:
            self._render_tones_batched(mix, listener, start)
            for bed in self._noise_beds:
                gain, delay = self._bed_geometry_for(listener, bed)
                self._mix_noise(mix, bed, start, gain, delay)
        if observed:
            self._m_render_ms.observe((_time.perf_counter() - wall_start) * 1e3)
        mix.setflags(write=False)
        self._window_cache[key] = mix
        if len(self._window_cache) > WINDOW_CACHE_SIZE:
            self._window_cache.popitem(last=False)
        return AudioSignal(mix, self.sample_rate)

    def _render_tones_batched(
        self, mix: np.ndarray, listener: Position, window_start: float
    ) -> None:
        """Mix every audible tone (and echo) into ``mix`` with one flat
        ``np.sin`` over all of the window's segments.

        Matches :meth:`_mix_tone` bit-for-bit: the per-sample phase /
        amplitude / envelope arithmetic is evaluated in the same order,
        and ``np.bincount`` sums each sample's contributions one by one
        in (schedule sequence, tap) order, as the reference loop does.
        """
        count = len(mix)
        window_end = window_start + count / self.sample_rate
        # Candidate horizon: a tone whose *emission* ended more than the
        # worst-case (propagation + echo) delay before the window opens
        # cannot reach it; everything older bisects away.  Of the tail,
        # only tones that started before the window closes can reach it
        # (delays only push arrivals later).
        max_delay = self._max_echo_delay + self._max_propagation_delay(listener)
        first = bisect_left(self._index_ends, window_start - max_delay)
        starts = self._index_starts
        entries = self._index_entries
        # Sorting the (sequence, tone) entries restores schedule order.
        candidates = sorted(
            entries[i] for i in range(first, len(entries))
            if starts[i] < window_end
        )
        if self._obs is not None:
            self._m_bisected.inc(first)
            self._m_scanned.inc(len(candidates))

        taps = ((0.0, 0.0),) + self.echo_taps
        fault = self._fault_model
        # One (lo, offset, length, coeff, amplitude, envelope) entry per
        # audible (tone, tap) segment, in (sequence, tap) order.
        segments: list[tuple[int, int, int, float, float, np.ndarray]] = []
        for _sequence, tone in candidates:
            if fault is not None:
                fault_adjust = fault.tone_level_adjust_db(tone)
                if fault_adjust is None:
                    continue
            else:
                fault_adjust = 0.0
            _distance, delay, loss_db = self._geometry_for(
                listener, tone.position
            )
            spec = tone.spec
            tone_len = int(round(spec.duration * self.sample_rate))
            envelope = None
            for extra_delay, extra_loss in taps:
                arrival = tone.start_time + (delay + extra_delay)
                departure = arrival + spec.duration
                if departure <= window_start or arrival >= window_end:
                    continue
                overlap_start = max(arrival, window_start)
                overlap_end = min(departure, window_end)
                lo = int(round((overlap_start - window_start) * self.sample_rate))
                hi = int(round((overlap_end - window_start) * self.sample_rate))
                hi = min(hi, count)
                if hi <= lo:
                    continue
                offset = int(round((overlap_start - arrival) * self.sample_rate))
                length = min(offset + (hi - lo), tone_len) - offset
                if length <= 0:
                    continue
                if envelope is None:
                    envelope = raised_cosine_envelope(
                        tone_len, self.sample_rate, signalling_ramp(spec.duration)
                    )
                level = spec.level_db - loss_db - extra_loss
                if fault_adjust:
                    level += fault_adjust
                segments.append((
                    lo, offset, length, 2.0 * math.pi * spec.frequency,
                    db_to_amplitude(level) * math.sqrt(2.0),
                    envelope[offset : offset + length],
                ))
        if not segments:
            return
        los, offsets, lengths, coeffs, amplitudes, envelopes = zip(*segments)

        # Flat synthesis: sample k of segment s sits at flat position
        # heads[s] + k, at step offsets[s] + k of its tone's own clock.
        repeats = np.array(lengths)
        heads = np.cumsum(repeats) - repeats
        ramp = np.arange(sum(lengths))
        steps = np.repeat(np.array(offsets) - heads, repeats) + ramp
        samples = np.sin(np.repeat(coeffs, repeats) * steps / self.sample_rate)
        samples *= np.repeat(amplitudes, repeats)
        samples *= np.concatenate(envelopes)
        bins = np.repeat(np.array(los) - heads, repeats) + ramp
        mix += np.bincount(bins, weights=samples, minlength=count)

    # ------------------------------------------------------------------
    # Rendering — scalar reference path
    # ------------------------------------------------------------------

    def render_at_reference(
        self, listener: Position, start: float, end: float
    ) -> AudioSignal:
        """The original per-tone scalar render loop.

        Kept as the readable specification the vectorized
        :meth:`render_at` is pinned against bit for bit
        (``assert_array_equal`` in the equivalence suite).
        Bypasses the interval index and every cache except the shared
        envelope memo.
        """
        if end < start:
            raise ValueError(f"end ({end}) must be >= start ({start})")
        count = int(round((end - start) * self.sample_rate))
        mix = np.zeros(count)
        if count == 0:
            return AudioSignal(mix, self.sample_rate)
        for tone in self._tones:
            self._mix_tone(mix, tone, listener, start)
            for extra_delay, extra_loss in self.echo_taps:
                self._mix_tone(mix, tone, listener, start,
                               extra_delay, extra_loss)
        for bed in self._noise_beds:
            distance = listener.distance_to(bed.position)
            gain = 10.0 ** (-propagation_loss_db(distance) / 20.0)
            delay = (
                distance / SPEED_OF_SOUND
                if self.enable_propagation_delay
                else 0.0
            )
            self._mix_noise(mix, bed, start, gain, delay)
        return AudioSignal(mix, self.sample_rate)

    def _mix_tone(
        self,
        mix: np.ndarray,
        tone: ScheduledTone,
        listener: Position,
        window_start: float,
        extra_delay: float = 0.0,
        extra_loss_db: float = 0.0,
    ) -> None:
        """Add one (possibly partial) tone (or one of its echoes) into
        a capture buffer."""
        if self._fault_model is not None:
            fault_adjust = self._fault_model.tone_level_adjust_db(tone)
            if fault_adjust is None:
                return
        else:
            fault_adjust = 0.0
        distance = listener.distance_to(tone.position)
        delay = distance / SPEED_OF_SOUND if self.enable_propagation_delay else 0.0
        arrival = tone.start_time + (delay + extra_delay)
        departure = arrival + tone.spec.duration

        window_end = window_start + len(mix) / self.sample_rate
        if departure <= window_start or arrival >= window_end:
            return

        level = tone.spec.level_db - propagation_loss_db(distance) - extra_loss_db
        if fault_adjust:
            level += fault_adjust
        # Synthesize only the overlapping span, phase-continuous with
        # the tone's own clock so windows seam together exactly.
        overlap_start = max(arrival, window_start)
        overlap_end = min(departure, window_end)
        lo = int(round((overlap_start - window_start) * self.sample_rate))
        hi = int(round((overlap_end - window_start) * self.sample_rate))
        hi = min(hi, len(mix))
        if hi <= lo:
            return

        tone_len = int(round(tone.spec.duration * self.sample_rate))
        offset = int(round((overlap_start - arrival) * self.sample_rate))
        n = np.arange(offset, min(offset + (hi - lo), tone_len))
        if len(n) == 0:
            return
        amplitude = db_to_amplitude(level) * math.sqrt(2.0)
        phase = 2.0 * math.pi * tone.spec.frequency * n / self.sample_rate
        samples = amplitude * np.sin(phase)
        envelope = raised_cosine_envelope(
            tone_len, self.sample_rate, signalling_ramp(tone.spec.duration)
        )
        samples *= envelope[n]
        mix[lo : lo + len(samples)] += samples

    def _mix_noise(
        self,
        mix: np.ndarray,
        bed: NoiseBed,
        window_start: float,
        gain: float,
        delay: float,
    ) -> None:
        """Add a noise bed into a capture buffer.

        Non-looping beds are positioned one-shot sources and honour the
        speed-of-sound ``delay`` like tones do.  Looping beds model
        diffuse, steady-state ambience whose absolute phase is
        meaningless, so they keep the historical delay-free
        approximation (their ``delay`` is ignored) — see DESIGN.md §5.
        """
        source = bed.signal.samples
        source_len = len(source)
        count = len(mix)
        if bed.loop:
            start_index = int(round((window_start - bed.start) * self.sample_rate))
            indices = (start_index + _sample_ramp(count)) % source_len
            mix += gain * source[indices]
        else:
            start_index = int(
                round((window_start - delay - bed.start) * self.sample_rate)
            )
            lo = max(start_index, 0)
            hi = min(start_index + count, source_len)
            if hi > lo:
                dest = lo - start_index
                mix[dest : dest + (hi - lo)] += gain * source[lo:hi]
