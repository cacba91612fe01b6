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
from dataclasses import dataclass

import numpy as np

from .. import obs
from .fft import Spectrum, SpectrumAnalyzer
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


@dataclass(frozen=True)
class DetectionEvent:
    """One watched frequency heard in one capture window.

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
    epoch:
        Frequency-plan epoch the tone is attributed to (0 until a
        spectrum migration ever commits).  During a make-before-break
        handover, a tone heard on a *pre-migration* frequency carries
        the epoch it was emitted under while ``frequency`` already
        names its relocated plan entry — so no event is lost or
        misattributed across a PLAN_COMMIT boundary.
    """

    frequency: float
    measured_frequency: float
    level_db: float
    time: float
    epoch: int = 0


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
    spectrum_sink:
        Optional ``callback(spectrum, time)`` invoked with every window
        spectrum the detector computes during :meth:`detect` —
        *before* events are returned.  This is how the interference
        sentinel (:mod:`repro.core.spectrum`) estimates per-band noise
        occupancy from spectra the detector already paid for, with no
        extra FFTs.  ``None`` (the default) costs a single ``is not
        None`` check per window.
    """

    def __init__(
        self,
        watched_frequencies: list[float],
        tolerance_hz: float = DEFAULT_TOLERANCE_HZ,
        threshold_db: float = DEFAULT_THRESHOLD_DB,
        min_level_db: float = DEFAULT_MIN_LEVEL_DB,
        analyzer: SpectrumAnalyzer | None = None,
        spectrum_sink=None,
    ) -> None:
        if not watched_frequencies:
            raise ValueError("watched_frequencies must not be empty")
        if tolerance_hz <= 0:
            raise ValueError("tolerance_hz must be positive")
        self.watched = sorted(set(float(f) for f in watched_frequencies))
        self._watched_array = np.array(self.watched)
        self.tolerance_hz = tolerance_hz
        self.threshold_db = threshold_db
        self.min_level_db = min_level_db
        self._analyzer = analyzer or SpectrumAnalyzer(zero_pad_factor=2)
        self.spectrum_sink = spectrum_sink
        # Observability (repro.obs).  Detectors are rebuilt whenever the
        # watch list changes, so the instruments are get-or-create on the
        # registry (shared across rebuilds) rather than per-instance.
        self._obs = obs.get_registry()
        if self._obs is not None:
            self._m_detect_ms = self._obs.histogram("detector.detect_ms")
            self._m_windows = self._obs.counter("detector.windows")
            self._m_events = self._obs.counter("detector.events")

    def detect(self, window: AudioSignal, time: float = 0.0) -> list[DetectionEvent]:
        """Watched frequencies present in one capture window.

        Returns at most one event per watched frequency, sorted by
        ascending frequency.
        """
        if len(window) == 0:
            return []
        if self._obs is None:
            return self._detect_fft(window, time)
        wall_start = _time.perf_counter()
        events = self._detect_fft(window, time)
        self._m_detect_ms.observe((_time.perf_counter() - wall_start) * 1e3)
        self._m_windows.inc()
        self._m_events.inc(len(events))
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
        but all frames are analyzed in one batch: a strided frame
        matrix feeds one 2-D rfft, and the taper cache is shared across
        the whole stream.  Event times are ``start_time`` plus each
        frame's offset; the trailing partial frame is dropped, like
        :meth:`AudioSignal.frames`.
        """
        times, frames = signal.frame_matrix(frame_duration, hop_duration)
        if len(times) == 0 or frames.shape[1] == 0:
            return []
        events: list[DetectionEvent] = []
        frequencies, magnitudes = self._analyzer.analyze_block(
            frames, signal.sample_rate
        )
        window_duration = frames.shape[1] / signal.sample_rate
        for index, offset in enumerate(times):
            spectrum = Spectrum(
                frequencies, magnitudes[index], signal.sample_rate,
                window_duration,
            )
            events.extend(
                self._events_from_spectrum(spectrum, start_time + float(offset))
            )
        return events

    def _detect_fft(self, window: AudioSignal, time: float) -> list[DetectionEvent]:
        spectrum = self._analyzer.analyze(window)
        if self.spectrum_sink is not None:
            self.spectrum_sink(spectrum, time)
        return self._events_from_spectrum(spectrum, time)

    def _events_from_spectrum(
        self, spectrum: Spectrum, time: float
    ) -> list[DetectionEvent]:
        frequencies, magnitudes, _floor = self._analyzer.peak_arrays(
            spectrum, self.threshold_db
        )
        levels = np.array([amplitude_to_db(m) for m in magnitudes.tolist()])
        heard = _unshadowed(frequencies, levels)
        heard &= levels >= self.min_level_db
        frequencies = frequencies[heard]
        levels = levels[heard]
        matches = self._match(frequencies)
        events: dict[float, DetectionEvent] = {}
        for measured, level, match in zip(
            frequencies.tolist(), levels.tolist(), matches.tolist()
        ):
            if match < 0:
                continue
            watched = self.watched[match]
            existing = events.get(watched)
            if existing is None or level > existing.level_db:
                events[watched] = DetectionEvent(watched, measured, level, time)
        return sorted(events.values(), key=lambda e: e.frequency)

    def _match(self, measured: np.ndarray) -> np.ndarray:
        """Per measured frequency, the index into ``watched`` of the
        nearest watched frequency, or -1 if none is within tolerance.
        ``argmin`` keeps the first of equal distances, so a tie goes to
        the lower frequency, as ``min`` over the sorted list picks it.
        """
        distance = np.abs(self._watched_array - measured[:, None])
        nearest = distance.argmin(axis=1)
        return np.where(distance.min(axis=1) <= self.tolerance_hz, nearest, -1)


def _unshadowed(frequencies: np.ndarray, levels_db: np.ndarray) -> np.ndarray:
    """Mask of the peaks (sorted by descending magnitude) that are not
    plausibly window sidelobes: no *kept* peak within
    ``SIDELOBE_RADIUS_HZ`` stands ``SIDELOBE_REJECTION_DB`` above them.
    A shadowing peak is always earlier in the order, and only the few
    peaks with any shadow need the greedy pass."""
    shadows = (
        (levels_db[:, None] - levels_db >= SIDELOBE_REJECTION_DB)
        & (np.abs(frequencies[:, None] - frequencies) <= SIDELOBE_RADIUS_HZ)
    )
    kept = ~shadows.any(axis=0)
    for peak in np.flatnonzero(~kept):
        kept[peak] = not (shadows[:, peak] & kept).any()
    return kept
