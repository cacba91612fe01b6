"""Known-frequency detection: turning captured audio into events.

The MDN controller always listens for a *known* set of frequencies —
its frequency plan tells it which tones each switch may play (§3: "Each
switch in our testbed was assigned a unique set of frequencies").  The
:class:`FrequencyDetector` matches spectral energy in a capture window
against that watch list and reports :class:`DetectionEvent`s.

Two interchangeable backends exercise the ablation described in
DESIGN.md §5:

* ``"fft"`` — one windowed FFT per capture, peaks matched against the
  watch list within a tolerance;
* ``"goertzel"`` — a Goertzel bank evaluated only at the watched
  frequencies (cheaper for small watch lists).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .. import obs
from .fft import Spectrum, SpectrumAnalyzer
from .goertzel import GoertzelBank, GoertzelResult
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
    backend:
        ``"fft"`` or ``"goertzel"``.  The Goertzel bank evaluates only
        the watched bins and has no peak structure to reject smear
        with, so tones cut by window boundaries can bleed into a 20 Hz
        neighbour's bin; plans driving a Goertzel deployment should use
        a 40 Hz guard (the FFT backend resolves 20 Hz).
    spectrum_sink:
        Optional ``callback(spectrum, time)`` invoked with every window
        spectrum the FFT backend computes during :meth:`detect` —
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
        backend: str = "fft",
        analyzer: SpectrumAnalyzer | None = None,
        spectrum_sink=None,
    ) -> None:
        if not watched_frequencies:
            raise ValueError("watched_frequencies must not be empty")
        if tolerance_hz <= 0:
            raise ValueError("tolerance_hz must be positive")
        if backend not in ("fft", "goertzel"):
            raise ValueError(f"unknown backend {backend!r}")
        self.watched = sorted(set(float(f) for f in watched_frequencies))
        self._watched_array = np.array(self.watched)
        self.tolerance_hz = tolerance_hz
        self.threshold_db = threshold_db
        self.min_level_db = min_level_db
        self.backend = backend
        self._analyzer = analyzer or SpectrumAnalyzer(zero_pad_factor=2)
        self.spectrum_sink = spectrum_sink
        if spectrum_sink is not None and backend != "fft":
            raise ValueError(
                "spectrum_sink requires the fft backend (the Goertzel "
                "bank computes no full spectrum)"
            )
        self._goertzel = GoertzelBank(self.watched) if backend == "goertzel" else None
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
            if self.backend == "goertzel":
                return self._detect_goertzel(window, time)
            return self._detect_fft(window, time)
        wall_start = _time.perf_counter()
        if self.backend == "goertzel":
            events = self._detect_goertzel(window, time)
        else:
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
        matrix feeds either one 2-D rfft (FFT backend) or one Goertzel
        matmul plus one floor-probe matmul (Goertzel backend), and the
        taper/phasor caches are shared across the whole stream.  Event
        times are ``start_time`` plus each frame's offset; the trailing
        partial frame is dropped, like :meth:`AudioSignal.frames`.
        """
        times, frames = signal.frame_matrix(frame_duration, hop_duration)
        if len(times) == 0 or frames.shape[1] == 0:
            return []
        events: list[DetectionEvent] = []
        if self.backend == "goertzel":
            assert self._goertzel is not None
            magnitudes = self._goertzel.analyze_block(frames, signal.sample_rate)
            floors = self._goertzel.floor_block(frames, signal.sample_rate)
            watched = self._goertzel.frequencies
            for index, offset in enumerate(times):
                threshold = (
                    max(float(floors[index]), 1e-12)
                    * 10.0 ** (self.threshold_db / 20.0)
                )
                hits = [
                    GoertzelResult(freq, float(mag))
                    for freq, mag in zip(watched, magnitudes[index])
                    if mag >= threshold
                ]
                events.extend(
                    self._events_from_hits(hits, start_time + float(offset))
                )
        else:
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

    def _detect_goertzel(
        self, window: AudioSignal, time: float
    ) -> list[DetectionEvent]:
        assert self._goertzel is not None
        hits = self._goertzel.detect(window, self.threshold_db)
        return self._events_from_hits(hits, time)

    def _events_from_hits(
        self, hits: list[GoertzelResult], time: float
    ) -> list[DetectionEvent]:
        # The bank only evaluates watched frequencies, so sidelobe
        # leakage from a loud neighbour shows up *at* a watched bin;
        # apply the same relative rejection by level.
        hits = [
            hit for hit in sorted(hits, key=lambda h: h.magnitude, reverse=True)
            if hit.level_db >= self.min_level_db
        ]
        heard = _unshadowed(np.array([hit.frequency for hit in hits]),
                            np.array([hit.level_db for hit in hits]))
        return [
            DetectionEvent(hit.frequency, hit.frequency, hit.level_db, time)
            for hit in sorted(compress(hits, heard), key=lambda h: h.frequency)
        ]

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
