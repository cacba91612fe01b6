"""Known-frequency detection: turning captured audio into events.

The MDN controller always listens for a *known* set of frequencies —
its frequency plan tells it which tones each switch may play (§3: "Each
switch in our testbed was assigned a unique set of frequencies").  The
:class:`FrequencyDetector` matches spectral energy in a capture window
against that watch list and reports :class:`DetectionEvent`s: one
windowed FFT per capture, with its peaks matched against the watch list
within a tolerance.
"""

from __future__ import annotations

import time as _time
from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from .. import obs
from .fft import SpectrumAnalyzer, row_medians, spectral_peak_rows
from .signal import AudioSignal, amplitude_to_db

#: The paper's empirical separability limit between adjacent tones.
DEFAULT_TOLERANCE_HZ = 10.0

#: How far above the per-window noise floor a tone must stand.
DEFAULT_THRESHOLD_DB = 10.0

#: Absolute minimum received level for a valid detection.  §3: "in our
#: experiments we played sounds of at least 30 dB"; anything quieter is
#: treated as leakage or noise.
DEFAULT_MIN_LEVEL_DB = 30.0

#: A candidate peak this many dB below a stronger peak nearby is
#: rejected as a window/envelope sidelobe of that peak.  Short tones
#: cut by the capture-window boundary smear up to ~-16 dB of energy
#: into ±40 Hz sidebands, so the margin is 15 dB.  The flip side is a
#: near-far limit: a genuine tone more than 15 dB quieter than a
#: simultaneous neighbour within ``SIDELOBE_RADIUS_HZ`` is masked —
#: inherent to any shared acoustic medium, and the reason the paper
#: assigns *disjoint per-switch frequency sets* rather than relying on
#: level separation.
SIDELOBE_REJECTION_DB = 15.0

#: Radius, in Hz, within which sidelobe rejection applies.
SIDELOBE_RADIUS_HZ = 120.0


class DetectionEvent(NamedTuple):
    """One watched frequency heard in one capture window.

    An immutable record compared and hashed by value.  It is a named
    tuple, not a dataclass, because listen windows and the telemetry
    bus build one per heard tone: a tuple costs about a third of a
    frozen dataclass to build.

    Attributes
    ----------
    frequency:
        The *watched* frequency that matched (Hz) — i.e. the plan
        entry, not the raw spectral estimate.
    measured_frequency:
        The spectral estimate that matched it (Hz).
    level_db:
        Received level of the tone, dB SPL.
    time:
        Capture-window start time, seconds (simulation clock).
    """

    frequency: float
    measured_frequency: float
    level_db: float
    time: float


class FrequencyDetector:
    """Matches capture windows against a watch list of frequencies.

    Parameters
    ----------
    watched_frequencies:
        The frequencies the listening application cares about.
    tolerance_hz:
        Maximum |measured − watched| distance for a match.  Defaults to
        half the paper's 20 Hz guard spacing, so adjacent plan entries
        can never both claim one peak.
    threshold_db:
        Required prominence above the window's noise floor.
    """

    def __init__(
        self,
        watched_frequencies: list[float],
        tolerance_hz: float = DEFAULT_TOLERANCE_HZ,
        threshold_db: float = DEFAULT_THRESHOLD_DB,
        min_level_db: float = DEFAULT_MIN_LEVEL_DB,
        analyzer: SpectrumAnalyzer | None = None,
    ) -> None:
        if not watched_frequencies:
            raise ValueError("watched_frequencies must not be empty")
        if tolerance_hz <= 0:
            raise ValueError("tolerance_hz must be positive")
        self.watched = sorted(set(float(f) for f in watched_frequencies))
        self.tolerance_hz = tolerance_hz
        self.threshold_db = threshold_db
        self.min_level_db = min_level_db
        self._analyzer = analyzer or SpectrumAnalyzer(zero_pad_factor=2)
        # Observability (repro.obs).  A controller builds a fresh detector
        # on every start, so the instruments are get-or-create on the
        # registry (shared across rebuilds) rather than per-instance.
        self._obs = obs.get_registry()
        if self._obs is not None:
            self._m_detect_ms = self._obs.histogram("detector.detect_ms")
            self._m_windows = self._obs.counter("detector.windows")
            self._m_events = self._obs.counter("detector.events")

    def detect(self, window: AudioSignal, time: float = 0.0) -> list[DetectionEvent]:
        """Watched frequencies present in one capture window: the
        one-row call of :meth:`detect_frames`, counted.

        Returns at most one event per watched frequency, sorted by
        ascending frequency.
        """
        if len(window) == 0:
            return []
        events = self.detect_frames(window.samples, window.sample_rate,
                                    (time,))[0]
        self.tally(len(events))
        return events

    def detect_stream(
        self,
        signal: AudioSignal,
        frame_duration: float = 0.05,
        hop_duration: float | None = None,
        start_time: float = 0.0,
    ) -> list[DetectionEvent]:
        """Detect over every analysis frame of a longer capture.

        The streaming counterpart of framing ``signal`` yourself and
        calling :meth:`detect` per frame — same events, same order —
        but all frames are analyzed in one batch: the frame-matrix call
        of :meth:`detect_frames`.  Event times are ``start_time`` plus
        each frame's offset; the trailing partial frame is dropped,
        like :meth:`AudioSignal.frames`.
        """
        times, frames = signal.frame_matrix(frame_duration, hop_duration)
        if len(times) == 0 or frames.shape[1] == 0:
            return []
        heard = self.detect_frames(
            frames, signal.sample_rate,
            [start_time + offset for offset in times.tolist()],
        )
        events = [event for window in heard for event in window]
        self.tally(len(events), len(heard))
        return events

    def detect_frames(self, frames: np.ndarray, sample_rate: int,
                      times) -> list[list[DetectionEvent]]:
        """The events of each row of ``frames`` (one capture window per
        row; a 1-D array is one row), row ``i`` stamped ``times[i]``.

        One batched detect: one rfft over the rows, one axis-1
        partition for the noise floors, one 2-D peak search; only the
        matching tail runs per peak.  Row ``i`` equals :meth:`detect` of
        that row alone.  Nothing is counted here: a caller counts the
        windows it uses with :meth:`tally`.
        """
        frames = frames.reshape(-1, frames.shape[-1])
        if not frames.shape[1]:
            return [[] for _row in frames]
        observed = self._obs is not None
        wall_start = _time.perf_counter() if observed else 0.0
        plan = self._analyzer.plan(frames.shape[1], sample_rate)
        heard = self._row_events(plan.frequencies, plan.bin_width,
                                 plan.magnitudes(frames), times)
        if observed:
            self._m_detect_ms.observe_many(np.full(
                len(heard),
                (_time.perf_counter() - wall_start) * 1e3 / len(heard),
            ))
        return heard

    def tally(self, events: int, windows: int = 1) -> None:
        """Count ``windows`` detected windows holding ``events`` events
        in all (a listener that detects windows ahead of use counts
        each when it uses it)."""
        if self._obs is not None:
            self._m_windows.inc(windows)
            self._m_events.inc(events)

    def _row_events(self, frequencies: np.ndarray, bin_width: float,
                    magnitudes: np.ndarray,
                    times) -> list[list[DetectionEvent]]:
        """The events of each row's magnitude spectrum: the peaks of
        :func:`~repro.audio.fft.spectral_peak_rows` standing
        ``threshold_db`` above the row's noise floor, loudest first,
        less the quiet ones and the sidelobes, matched to the watch
        list.  The
        floors and peaks are array math over all rows; the matching
        tail is plain Python over the ~20 peaks a window holds, in the
        IEEE operations of the array pipeline it replaced
        (``tests/audio/reference_detect.py``), so the events are equal.
        """
        rows, size = magnitudes.shape
        if size < 3:
            return [[] for _ in times]
        floors = np.maximum(row_medians(magnitudes), 1e-12)
        row, frequency, magnitude = spectral_peak_rows(
            frequencies, bin_width, magnitudes,
            floors * 10.0 ** (self.threshold_db / 20.0), 1, size - 1,
        )
        bounds = row.searchsorted(np.arange(rows + 1)).tolist()
        frequency, magnitude = frequency.tolist(), magnitude.tolist()
        return [
            self._match(zip(frequency[lo:hi], magnitude[lo:hi]), time)
            for lo, hi, time in zip(bounds, bounds[1:], times)
        ]

    def _match(self, peaks, time: float) -> list[DetectionEvent]:
        """The events of one window's ``(frequency, magnitude)`` peaks,
        loudest first."""
        # Peaks below the level cut are skipped outright: they could
        # only shadow quieter peaks, which the cut drops too.
        kept: list[tuple[float, float]] = []  # (level, frequency), loudest first
        events: dict[float, DetectionEvent] = {}
        for frequency, magnitude in peaks:
            level = amplitude_to_db(magnitude)
            if level < self.min_level_db or _shadowed(kept, level, frequency):
                continue
            kept.append((level, frequency))
            watched = self._nearest(frequency)
            if watched is None:
                continue
            existing = events.get(watched)
            if existing is None or level > existing.level_db:
                events[watched] = DetectionEvent(watched, frequency, level, time)
        return [events[watched] for watched in sorted(events)]

    def _nearest(self, frequency: float) -> float | None:
        """The watched frequency nearest ``frequency``, or ``None`` if
        none is within tolerance.  A tie goes to the lowest of the
        equally near ones, as ``min`` over the sorted list picks it."""
        watched = self.watched
        index = bisect_left(watched, frequency)
        if index == len(watched):
            index -= 1
        distance = abs(watched[index] - frequency)
        # Below ``frequency`` distances only shrink towards it, so the
        # walk down stops at the first strictly farther neighbour.
        while index and abs(watched[index - 1] - frequency) <= distance:
            index -= 1
            distance = abs(watched[index] - frequency)
        return watched[index] if distance <= self.tolerance_hz else None


def _shadowed(kept: list[tuple[float, float]], level: float,
              frequency: float) -> bool:
    """Whether a kept peak within ``SIDELOBE_RADIUS_HZ`` stands
    ``SIDELOBE_REJECTION_DB`` above this one, so it is plausibly that
    peak's window sidelobe.  ``kept`` holds ``(level, frequency)`` pairs
    loudest first, so the scan stops at the first peak less than the
    margin louder."""
    for stronger, other in kept:
        if not stronger - level >= SIDELOBE_REJECTION_DB:
            return False
        if abs(other - frequency) <= SIDELOBE_RADIUS_HZ:
            return True
    return False
