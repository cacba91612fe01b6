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
capture lands in :meth:`AcousticChannel.render_block`, and a 50-switch
fleet room hears 30 windows per simulated second.  The render therefore
works on whole columns, not on tone objects:

* one **columnar tone index** (a float array with one column per
  scheduled tone, sorted by end time; :meth:`play_tones` queues whole
  columns and the next render or :meth:`prune` merges them in) holds
  each tone's start, end, schedule sequence, level, position id,
  wave-type id, duration and length.  It is the only record of a tone:
  :class:`ScheduledTone` objects are built from its columns on demand.
  A capture bisects on both sides straight to the tones that can
  overlap it, so neither the history nor a parked future schedule is
  scanned;
* per listener, **delay and loss arrays** indexed by position id turn
  the geometry of every candidate (tone, echo tap) segment into array
  math, evaluated with the same IEEE operations as the scalar
  per-tone loop (``np.rint`` rounds half to even like ``round``);
* a bounded **wave bank** holds ``sin(2π·f·n/sr)`` and the tone
  envelope once per wave type ``(frequency, duration)``, synthesized
  when the type is first scheduled.  A window gathers its segments'
  bank slices end to end, scales them by amplitude and then envelope,
  and sums them into the mix with one ``np.bincount`` in (schedule
  sequence, tap) order.  :meth:`prune` drops wave types and positions
  that no live tone uses;
* a bounded **window render memo** keyed by ``(listener, start, end)``
  so repeated polls of the same window reuse the mixed buffer.
  ``play_tones`` / ``add_noise`` / ``clear`` / ``prune`` invalidate it,
  and each invalidation bumps :attr:`AcousticChannel.mutations`.

:meth:`AcousticChannel.render_block` renders a run of equal-length
windows in one pass: one ``np.bincount`` over every (window, tone, tap)
segment, capped by :data:`BLOCK_SEGMENT_SAMPLES`.  :meth:`render_at` is
its one-window call.  A listener that hears windows ahead of the clock
(:class:`~repro.core.controller.MDNController`) stamps them with
``mutations`` and re-hears them when it has moved.

``tests/audio/reference_render.py`` keeps the original per-tone scalar
loop; ``tests/audio/test_channel_equivalence.py`` pins :meth:`render_at`
to it bit for bit.
"""

from __future__ import annotations

import math
import time as _time
from collections import OrderedDict
from collections.abc import Sequence
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

#: Window render memo capacity (windows).  The memo stays only until
#: the next benchmark change: the benchmark's per-layer trace reads
#: ``render_cache_hits`` (ROADMAP item 3 removes both).
WINDOW_CACHE_SIZE = 128

#: Cap on the samples of one :meth:`AcousticChannel.render_block`: its
#: mix rows plus its candidate (window, tone, tap) segments, each
#: counted as a whole window.  The gather holds ~32 bytes per segment
#: sample, so this bounds a block's working set at a few MB whatever
#: the load; a 50-switch room at 1/30 s windows fits about 7 windows.
BLOCK_SEGMENT_SAMPLES = 1 << 17

#: Geometry cache flush threshold: listeners, or (listener, noise bed)
#: position pairs.
GEOMETRY_CACHE_SIZE = 65536

# Fields of the tone index (rows of its array; one column per tone).
# ``_LENGTH`` is the tone's length in samples.
_END, _START, _SEQ, _LEVEL, _POS, _WAVE, _DURATION, _LENGTH = range(8)


@lru_cache(maxsize=4096)
def _tone_amplitude(level_db: float) -> float:
    """Peak amplitude of a tone whose RMS level is ``level_db``."""
    return db_to_amplitude(level_db) * math.sqrt(2.0)


def _renumber(keys: list, ids: dict, column: np.ndarray) -> bool:
    """Drop the ``keys`` (by id) whose id ``column`` no longer uses and
    number the rest densely, in order, rewriting ``ids`` (key -> id) and
    ``column`` in place.  Returns whether any key was dropped."""
    used = np.flatnonzero(np.bincount(column.astype(np.intp),
                                      minlength=len(keys)))
    if len(used) == len(keys):
        return False
    keys[:] = [keys[old] for old in used.tolist()]
    ids.clear()
    ids.update((key, new) for new, key in enumerate(keys))
    column[:] = np.searchsorted(used, column)
    return True


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
        # Row 0: each tap's extra delay; row 1: its extra loss.
        self._taps = np.array(((0.0, 0.0),) + self.echo_taps).T
        self._max_echo_delay = float(self._taps[0].max())
        self._noise_beds: list[NoiseBed] = []
        self._sequence = 0
        # The tone index, column-major: its first ``_count`` entries
        # are the live tones, sorted by end time (capacity doubles as
        # it fills).  ``play_tones`` queues blocks of entries in
        # ``_pending``; the next render or prune merges them in.
        self._index = np.empty((8, 64))
        self._count = 0
        self._pending: list[np.ndarray] = []
        # Emitter positions and wave types ``(frequency, duration)``,
        # numbered densely in order of first use (by id, and id by
        # key); prune renumbers both over the live tones.
        self._positions: list[Position] = []
        self._position_ids: dict[Position, int] = {}
        #: Bumped whenever the *set* of positions changes; stales the
        #: per-listener geometry columns.
        self._position_version = 0
        # listener -> (position_version, delay and loss by position id,
        # worst delay)
        self._listener_geometry: dict[
            Position, tuple[int, np.ndarray, float]
        ] = {}
        self._waves: list[tuple[float, float]] = []
        self._wave_ids: dict[tuple[float, float], int] = {}
        # By wave type id, the type's offset in the wave bank.
        self._wave_base = np.empty(0, dtype=np.intp)
        # The longest wave type's duration: how far past a window's
        # end a tone that starts inside the window can end.
        self._max_duration = 0.0
        # The wave bank: each wave type's sine (row 0) and envelope
        # (row 1) samples at [base, base + length).
        self._bank = np.empty((2, 0))
        # id(bed signal), positions -> (gain, delay_s); beds are few.
        self._bed_geometry: dict[tuple[Position, Position], tuple[float, float]] = {}
        # (listener, start, end) -> rendered mix (read-only ndarray).
        self._window_cache: OrderedDict[
            tuple[Position, float, float], np.ndarray
        ] = OrderedDict()
        #: Optional fault model (repro.faults): consulted per rendered
        #: tone of a faulted emitter.
        self._fault_model = None
        #: Bumped by every :meth:`invalidate_render_cache`, that is by
        #: every change to what a window sounds like (scheduling, noise
        #: beds, clear, prune, fault state).  Windows rendered under an
        #: older value may be stale.
        self.mutations = 0
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
            self._obs.gauge_fn("channel.scheduled_tones", self._tone_count)

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

    @property
    def faulted(self) -> bool:
        """Whether the fault model may mute a tone (some emitter has a
        fault scheduled).  A render then asks it about each candidate
        tone of a faulted emitter, and it counts what it mutes."""
        fault = self._fault_model
        return fault is not None and bool(fault.faulted_positions())

    def set_fault_model(self, model) -> None:
        """Install (or clear, with ``None``) a fault model.

        The render asks ``mutes(tone)`` about every candidate tone from
        an emitter in ``faulted_positions()`` and drops the tones it
        mutes (speaker dropout); no other tone can be muted.  It asks
        once per such candidate, so it stays equal to the scalar
        reference loop under any fault state.
        Installing, clearing, and every fault state change must
        invalidate the window memo.
        """
        self._fault_model = model
        self.invalidate_render_cache()

    def play_tone(
        self, start_time: float, spec: ToneSpec, position: Position = Position()
    ) -> None:
        """Schedule a tone emission: the one-row case of
        :meth:`play_tones`."""
        self.play_tones((start_time,), ((spec, position),))

    def play_tones(
        self,
        starts,
        voices: Sequence[tuple[ToneSpec, Position]],
        voice=None,
    ) -> None:
        """Schedule one tone emission per entry of ``starts``: row ``i``
        plays the ``(spec, position)`` pair ``voices[voice[i]]``
        (``voices[0]`` for every row when ``voice`` is None).

        The rows take consecutive schedule sequence numbers in the order
        given, which is the order their contributions to a shared
        sample are summed in, so a caller replacing per-tone calls must
        pass the rows in the order those calls would have been made.
        """
        starts = np.array(starts, dtype=float).reshape(-1)
        count = len(starts)
        voice = (np.zeros(count, np.intp) if voice is None
                 else np.asarray(voice, dtype=np.intp))
        if len(voice) != count:
            raise ValueError(f"{len(voice)} voice ids for {count} starts")
        if not count:
            return
        if starts.min() < 0:
            raise ValueError(
                f"start_time must be non-negative, got {starts.min()}"
            )
        for spec, _position in voices:
            if spec.frequency >= self.sample_rate / 2:
                raise ValueError(
                    f"tone frequency {spec.frequency} exceeds channel "
                    f"Nyquist limit ({self.sample_rate / 2} Hz)"
                )
        # Per voice, the fields from level on: level, position id,
        # wave type id, duration and length in samples.
        fields = np.array([
            (spec.level_db, self._position_id(position), self._wave_id(spec),
             spec.duration, round(spec.duration * self.sample_rate))
            for spec, position in voices
        ]).T
        block = np.empty((len(self._index), count))
        block[_START] = starts
        block[_SEQ] = np.arange(self._sequence, self._sequence + count)
        block[_LEVEL:] = fields.take(voice, axis=1)
        np.add(starts, block[_DURATION], out=block[_END])
        self._sequence += count
        self._pending.append(block)
        self.invalidate_render_cache()

    def _position_id(self, position: Position) -> int:
        position_id = self._position_ids.get(position)
        if position_id is None:
            position_id = self._position_ids[position] = len(self._positions)
            self._positions.append(position)
            self._position_version += 1
        return position_id

    def _wave_id(self, spec: ToneSpec) -> int:
        key = (spec.frequency, spec.duration)
        wave_id = self._wave_ids.get(key)
        if wave_id is None:
            wave_id = self._wave_ids[key] = len(self._waves)
            self._waves.append(key)
            self._max_duration = max(self._max_duration, spec.duration)
            self._wave_base = np.append(self._wave_base, -1)
            self._synthesize()
        return wave_id

    def _records(self, tones: np.ndarray) -> list[ScheduledTone]:
        """The :class:`ScheduledTone` of each column of ``tones`` (tone
        index entries), built from the index fields."""
        positions, waves = self._positions, self._waves
        return [
            ScheduledTone(start, ToneSpec(*waves[wave], level),
                          positions[position])
            for start, level, position, wave in zip(
                tones[_START].tolist(), tones[_LEVEL].tolist(),
                tones[_POS].astype(np.intp).tolist(),
                tones[_WAVE].astype(np.intp).tolist(),
            )
        ]

    def _tone_count(self) -> int:
        """Scheduled tones, merged or queued."""
        return self._count + sum(block.shape[1] for block in self._pending)

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
        """The live tones in schedule order, built from the tone index."""
        self._merge_pending()
        live = self._index[:, : self._count]
        return tuple(self._records(live.take(live[_SEQ].argsort(), axis=1)))

    def clear(self) -> None:
        """Drop all scheduled tones and noise beds."""
        self._noise_beds.clear()
        self._pending.clear()
        self._count = 0
        self._drop_unused()
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
        self._merge_pending()
        live = self._count
        # The index is sorted by end time, so the drop is a prefix.
        dropped = int(np.searchsorted(self._index[_END, :live], keep_cutoff))
        if dropped:
            self._index[:, : live - dropped] = self._index[:, dropped:live]
            self._count = live - dropped
            self._drop_unused()
            self._m_pruned.inc(dropped)
        self.invalidate_render_cache()
        return dropped

    def invalidate_render_cache(self) -> None:
        """Drop memoized window renders (geometry, envelope and wave
        caches are pure and stay) and bump :attr:`mutations`.
        Scheduling operations and fault edges call this automatically;
        benchmarks use it to time cold renders."""
        self._window_cache.clear()
        self.mutations += 1

    def _merge_pending(self) -> None:
        """Merge the queued tones into the end-time-sorted index, each
        after every tone already there that ends at the same time."""
        if not self._pending:
            return
        entries = np.concatenate(self._pending, axis=1)
        self._pending.clear()
        old = self._count
        count = self._count = old + entries.shape[1]
        if count > self._index.shape[1]:
            grown = np.empty((len(entries), max(count, 2 * self._index.shape[1])))
            grown[:, :old] = self._index[:, :old]
            self._index = grown
        index = self._index
        index[:, old:count] = entries
        # Tones mostly arrive in end order; re-sort (stably) only the
        # suffix the out-of-order ones reach into.
        ends = index[_END, :count]
        after = max(old, 1)
        if (ends[after:] < ends[after - 1 : -1]).any():
            first = int(np.searchsorted(ends[:old], entries[_END].min(), "right"))
            order = ends[first:].argsort(kind="stable") + first
            index[:, first:count] = index[:, order]

    def _drop_unused(self) -> None:
        """Forget the positions and wave types no live tone uses, and
        renumber the rest densely, so state stays bounded by the live
        tones rather than by history."""
        live = self._index[:, : self._count]
        if _renumber(self._positions, self._position_ids, live[_POS]):
            self._position_version += 1
        if _renumber(self._waves, self._wave_ids, live[_WAVE]):
            self._max_duration = max(
                (duration for _frequency, duration in self._waves), default=0.0
            )
            # The surviving types are synthesized afresh.
            self._wave_base = np.full(len(self._waves), -1)
            self._bank = np.empty((2, 0))
            self._synthesize()

    # ------------------------------------------------------------------
    # Geometry caches
    # ------------------------------------------------------------------

    def _path(self, listener: Position, source: Position) -> tuple[float, float]:
        """Propagation delay and spreading loss (dB) from ``source``."""
        distance = listener.distance_to(source)
        delay = distance / SPEED_OF_SOUND if self.enable_propagation_delay else 0.0
        return delay, propagation_loss_db(distance)

    def _geometry_columns(self, listener: Position) -> tuple[np.ndarray, float]:
        """Propagation delay (row 0) and spreading loss (row 1) from
        every position id to ``listener``, and the worst delay among
        them; refreshed when the position set changes."""
        cached = self._listener_geometry.get(listener)
        if cached is None or cached[0] != self._position_version:
            paths = [self._path(listener, p) for p in self._positions]
            geometry = np.array(paths).reshape(-1, 2).T.copy()
            worst = max((delay for delay, _loss in paths), default=0.0)
            cached = (self._position_version, geometry, worst)
            if len(self._listener_geometry) >= GEOMETRY_CACHE_SIZE:
                self._listener_geometry.clear()
            self._listener_geometry[listener] = cached
        return cached[1:]

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
            delay, loss_db = self._path(listener, bed.position)
            if len(self._bed_geometry) >= GEOMETRY_CACHE_SIZE:
                self._bed_geometry.clear()
            geometry = (10.0 ** (-loss_db / 20.0), delay)
            self._bed_geometry[key] = geometry
        return geometry

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def render_at(self, listener: Position, start: float, end: float) -> AudioSignal:
        """Pressure signal arriving at ``listener`` during ``[start, end)``:
        the one-window call of :meth:`render_block`.

        Bit-identical to the scalar per-tone loop kept in
        ``tests/audio/reference_render.py``.  Repeated renders of the
        same ``(listener, start, end)`` share one (read-only) buffer.
        """
        if end < start:
            raise ValueError(f"end ({end}) must be >= start ({start})")
        rows, _block = self._render_rows(listener, (start,), (end,))
        return AudioSignal(rows[0], self.sample_rate)

    def render_block(self, listener: Position, starts, ends) -> np.ndarray:
        """The mixes arriving at ``listener`` during the windows
        ``[starts[i], ends[i])``, one read-only row each, for a prefix of
        the windows: those with the first window's sample count whose
        candidate segments fit :data:`BLOCK_SEGMENT_SAMPLES` (the first
        window always does).

        Row ``i`` is what :meth:`render_at` gives for window ``i``: the
        windows are rendered together, but each one's segments are
        found, muted and mixed as if it were alone.  Rows are served
        from, and stored in, the window memo.
        """
        rows, block = self._render_rows(listener, starts, ends)
        if block is None:
            block = np.stack(rows)
            block.setflags(write=False)
        return block

    def _render_rows(self, listener: Position, starts,
                     ends) -> tuple[list[np.ndarray], np.ndarray | None]:
        """:meth:`render_block`'s rows as the memo holds them, and the
        block array itself when every row was rendered afresh."""
        starts = np.asarray(starts, dtype=float).reshape(-1)
        ends = np.asarray(ends, dtype=float).reshape(-1)
        if (ends < starts).any():
            raise ValueError("every window must end at or after its start")
        count = round((ends[0] - starts[0]) * self.sample_rate)
        windows = len(starts)
        if windows > 1:
            same = np.rint((ends - starts) * self.sample_rate) == count
            windows = self._block_size(
                listener, starts[: int(same.argmin()) or windows], count)
        keys = [(listener, start, end) for start, end in
                zip(starts[:windows].tolist(), ends[:windows].tolist())]
        memo = self._window_cache
        rows = [memo.get(key) for key in keys]
        missing = [at for at, row in enumerate(rows) if row is None]
        hits = windows - len(missing)
        if hits:
            self._m_memo_hits.inc(hits)
            for key, row in zip(keys, rows):
                if row is not None:
                    memo.move_to_end(key)
        if missing:
            self._m_memo_misses.inc(len(missing))
            observed = self._obs is not None
            wall_start = _time.perf_counter() if observed else 0.0
            fresh = self._render(listener, starts.take(missing), count)
            if observed:
                self._m_render_ms.observe_many(np.full(
                    len(missing),
                    (_time.perf_counter() - wall_start) * 1e3 / len(missing),
                ))
            fresh.setflags(write=False)
            for at, row in zip(missing, fresh):
                rows[at] = memo[keys[at]] = row
            while len(memo) > WINDOW_CACHE_SIZE:
                memo.popitem(last=False)
            if not hits:
                return rows, fresh
        return rows, None

    def _block_size(self, listener: Position, starts: np.ndarray,
                    count: int) -> int:
        """How many of the ``count``-sample windows from ``starts`` one
        block renders: the longest prefix (at least one) whose mix rows
        and candidate (tone, tap) segments, each counted as a whole
        window, total at most :data:`BLOCK_SEGMENT_SAMPLES`."""
        if len(starts) == 1:
            return 1
        _geometry, worst = self._geometry_columns(listener)
        first, last = self._candidate_spans(
            starts, starts + count / self.sample_rate,
            self._max_echo_delay + worst,
        )
        samples = (1 + (last - first) * self._taps.shape[1]).cumsum()
        samples *= max(count, 1)
        return max(1, int(samples.searchsorted(BLOCK_SEGMENT_SAMPLES, "right")))

    def _candidate_spans(self, starts: np.ndarray, window_ends: np.ndarray,
                         max_delay: float) -> tuple[np.ndarray, np.ndarray]:
        """Per window, the tone index range ``[first, last)`` that can
        reach it.  A tone whose *emission* ended more than the worst-case
        (propagation + echo) delay before the window opens cannot reach
        it; everything older bisects away.  Only tones that started
        before the window closes can reach it (delays only push arrivals
        later), and such a tone ends by ``window_end + _max_duration``
        (rounded addition is monotone), so everything later bisects away
        too."""
        if self._pending:
            self._merge_pending()
        ends = self._index[_END, : self._count]
        return (ends.searchsorted(starts - max_delay),
                ends.searchsorted(window_ends + self._max_duration, "right"))

    def _render(self, listener: Position, starts: np.ndarray,
                count: int) -> np.ndarray:
        """The tones and noise beds of the ``count``-sample windows from
        ``starts``, one row each."""
        mix = (self._render_tones(listener, starts, count) if count
               else np.zeros((len(starts), 0)))
        for bed in self._noise_beds:
            gain, delay = self._bed_geometry_for(listener, bed)
            for row, start in zip(mix, starts.tolist()):
                self._mix_noise(row, bed, start, gain, delay)
        return mix

    def _render_tones(
        self, listener: Position, starts: np.ndarray, count: int
    ) -> np.ndarray:
        """The mix of every audible (window, tone, echo tap) segment, one
        row of ``count`` samples per window start.

        Segment geometry is array math over the index columns, in the
        scalar per-tone loop's IEEE operations with each segment's own
        window bounds; samples are gathered from the wave bank, scaled
        by amplitude and then envelope, and summed by ``np.bincount``,
        which adds each sample's contributions one by one to 0.0 in
        (window, schedule sequence, tap) order, as the scalar loop does
        window by window.  Its output is the mix itself: it never holds
        -0.0, so it equals a zeroed buffer plus the sum.
        """
        rate = self.sample_rate
        blocks = len(starts)
        window_ends = starts + count / rate
        geometry, worst = self._geometry_columns(listener)
        first, last = self._candidate_spans(
            starts, window_ends, self._max_echo_delay + worst
        )
        # The index entries some window can hear, in schedule order;
        # each window hears those in its own span that start before it
        # closes.  Row-major, the pairs come in (window, sequence) order.
        lo = int(first.min())
        union = self._index[:, lo : int(last.max())]
        order = union[_SEQ].argsort()
        union = union.take(order, axis=1)
        heard = union[_START] < window_ends[:, None]
        if blocks > 1:
            order += lo
            heard &= (order >= first[:, None]) & (order < last[:, None])
        window, column = heard.nonzero()
        tones = union.take(column, axis=1)
        if self._obs is not None:
            self._m_bisected.inc(int((first + self._count - last).sum()))
            self._m_scanned.inc(tones.shape[1])
        if self.faulted:
            # Only a faulted emitter's tones can be muted.
            fault = self._fault_model
            ids = [self._position_ids[p] for p in fault.faulted_positions()
                   if p in self._position_ids]
            rows = np.isin(tones[_POS], ids).nonzero()[0]
            muted = np.zeros(tones.shape[1], dtype=bool)
            muted[rows] = list(map(fault.mutes,
                                   self._records(tones.take(rows, axis=1))))
            tones, window = tones[:, ~muted], window[~muted]
        if not tones.shape[1]:
            return np.zeros((blocks, count))
        positions, wave_ids = tones[_POS : _WAVE + 1].astype(np.intp)
        base = self._wave_base.take(wave_ids)
        delay, loss = geometry.take(positions, axis=1)
        level = tones[_LEVEL] - loss

        # One entry per (window, tone, tap) segment, in (window,
        # sequence, tap) order; the direct path (tap 0) adds no delay
        # and no loss.
        taps = self._taps.shape[1]
        if taps > 1:
            tones, base = tones.repeat(taps, axis=1), base.repeat(taps)
            window = window.repeat(taps)
            tap_delay, tap_loss = np.tile(self._taps, len(base) // taps)
            delay = delay.repeat(taps) + tap_delay
            level = level.repeat(taps) - tap_loss
        window_start = starts.take(window)
        arrival = tones[_START] + delay
        # Rows: where the segment's overlap with its window opens and
        # closes, and how far into the tone it opens -- in samples.
        edges = np.empty((3, len(base)))
        np.maximum(arrival, window_start, out=edges[0])
        np.minimum(arrival + tones[_DURATION], window_ends.take(window),
                   out=edges[1])
        np.subtract(edges[0], arrival, out=edges[2])
        edges[:2] -= window_start
        edges *= rate
        lo, hi, offset = np.rint(edges, out=edges)
        np.minimum(hi, count, out=hi)
        length = np.minimum(offset + (hi - lo), tones[_LENGTH]) - offset
        # A segment that ends before the window opens or arrives after
        # it closes has hi <= lo, so it has no length either.
        audible = length > 0
        amplitude = np.array(list(map(_tone_amplitude, level[audible].tolist())))
        # Rows: bin in the flat (window, sample) mix, bank position and
        # length of each audible segment.
        lo += window * count
        np.add(offset, base, out=hi)
        offset[:] = length
        segments = edges.compress(audible, axis=1).astype(np.intp)
        length = segments[2]

        # Sample k of segment s sits at flat position heads[s] + k, at
        # bank position base[s] + offset[s] + k and mix bin lo[s] + k.
        # One index column serves both, in turn.
        heads = length.cumsum()
        heads -= length
        at = (segments[1] - heads).repeat(length)
        at += np.arange(len(at))
        sine = self._bank[0].take(at)
        sine *= amplitude.repeat(length)
        sine *= self._bank[1].take(at)
        bins = at
        bins += (segments[0] - segments[1]).repeat(length)
        # With no audible sample at all, bincount answers in integers.
        mix = np.bincount(bins, weights=sine, minlength=blocks * count)
        return mix.astype(float, copy=False).reshape(blocks, count)

    def _synthesize(self) -> None:
        """Add the whole-tone sine and envelope of every wave type that
        the bank lacks."""
        waves = [self._bank]
        base = self._bank.shape[1]
        for wave_id in np.flatnonzero(self._wave_base < 0).tolist():
            frequency, duration = self._waves[wave_id]
            tone_len = round(duration * self.sample_rate)
            steps = np.arange(tone_len)
            waves.append((
                np.sin(2.0 * math.pi * frequency * steps / self.sample_rate),
                raised_cosine_envelope(
                    tone_len, self.sample_rate, signalling_ramp(duration)
                ),
            ))
            self._wave_base[wave_id] = base
            base += tone_len
        self._bank = np.concatenate(waves, axis=1)

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
            indices = np.arange(start_index, start_index + count) % source_len
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
