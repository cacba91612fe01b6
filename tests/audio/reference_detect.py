"""The array detect pipeline: the specification that
:meth:`repro.audio.FrequencyDetector.detect` is pinned against.

``reference_detect(detector, window, time)`` analyses the window into a
:class:`~repro.audio.fft.Spectrum`, picks and refines its peaks with
array masks over the bins (the noise floor from ``np.median``), masks
sidelobes with a peak-by-peak shadow matrix and matches the survivors
to the watch list with a distance matrix.  ``detect`` must return equal
event lists: it evaluates the same IEEE operations per peak, with the
floor from one partition and the peak tail in plain Python.

It has the ``detect`` signature with the detector first, so a test can
swap it in with ``monkeypatch.setattr(FrequencyDetector, "detect",
reference_detect)``.
"""

from __future__ import annotations

import numpy as np

from repro.audio import AudioSignal, DetectionEvent, FrequencyDetector
from repro.audio.detector import SIDELOBE_RADIUS_HZ, SIDELOBE_REJECTION_DB
from repro.audio.fft import Spectrum
from repro.audio.signal import amplitude_to_db


def reference_detect(
    detector: FrequencyDetector, window: AudioSignal, time: float = 0.0
) -> list[DetectionEvent]:
    """Watched frequencies present in one capture window."""
    if len(window) == 0:
        return []
    spectrum = detector._analyzer.analyze(window)
    return events_from_spectrum(detector, spectrum, time)


def reference_detect_stream(
    detector: FrequencyDetector,
    signal: AudioSignal,
    frame_duration: float = 0.05,
    hop_duration: float | None = None,
    start_time: float = 0.0,
) -> list[DetectionEvent]:
    """Detect over every analysis frame of a longer capture, with one
    batched 2-D rfft and a :class:`Spectrum` per frame."""
    times, frames = signal.frame_matrix(frame_duration, hop_duration)
    if len(times) == 0 or frames.shape[1] == 0:
        return []
    plan = detector._analyzer.plan(frames.shape[1], signal.sample_rate)
    frequencies, magnitudes = plan.frequencies, plan.magnitudes(frames)
    window_duration = frames.shape[1] / signal.sample_rate
    events: list[DetectionEvent] = []
    for index, offset in enumerate(times):
        spectrum = Spectrum(frequencies, magnitudes[index],
                            signal.sample_rate, window_duration)
        events.extend(
            events_from_spectrum(detector, spectrum, start_time + float(offset))
        )
    return events


def events_from_spectrum(
    detector: FrequencyDetector, spectrum: Spectrum, time: float
) -> list[DetectionEvent]:
    """The events of one window's spectrum, by array masks."""
    frequencies, magnitudes = array_peaks(spectrum, detector.threshold_db)
    levels = np.array([amplitude_to_db(m) for m in magnitudes.tolist()])
    heard = unshadowed(frequencies, levels)
    heard &= levels >= detector.min_level_db
    frequencies = frequencies[heard]
    levels = levels[heard]
    matches = match(detector, frequencies)
    events: dict[float, DetectionEvent] = {}
    for measured, level, index in zip(
        frequencies.tolist(), levels.tolist(), matches.tolist()
    ):
        if index < 0:
            continue
        watched = detector.watched[index]
        existing = events.get(watched)
        if existing is None or level > existing.level_db:
            events[watched] = DetectionEvent(watched, measured, level, time)
    return sorted(events.values(), key=lambda e: e.frequency)


def array_peaks(
    spectrum: Spectrum, threshold_db: float
) -> tuple[np.ndarray, np.ndarray]:
    """The peaks of the whole spectrum as parallel arrays
    ``(frequencies, magnitudes)``, by array masks: the
    local maxima standing ``threshold_db`` above the ``np.median``
    noise floor, sorted (stably) by descending magnitude and refined by
    three-point parabolic interpolation."""
    mags = spectrum.magnitudes
    freqs = spectrum.frequencies
    if len(mags) < 3:
        return np.zeros(0), np.zeros(0)
    floor = max(float(np.median(mags)), 1e-12)
    min_magnitude = floor * 10.0 ** (threshold_db / 20.0)
    centre = mags[1:-1]
    index = np.flatnonzero(
        (centre > mags[:-2])
        & (centre >= np.maximum(mags[2:], min_magnitude))
    ) + 1
    index = index[np.argsort(-mags[index], kind="stable")]
    left, centre, right = mags[index - 1], mags[index], mags[index + 1]
    denominator = left - 2.0 * centre + right
    offset = np.divide(0.5 * (left - right), denominator,
                       out=np.zeros_like(centre),
                       where=denominator != 0.0)
    offset = np.minimum(np.maximum(offset, -0.5), 0.5)
    return freqs[index] + offset * spectrum.bin_width, centre


def match(detector: FrequencyDetector, measured: np.ndarray) -> np.ndarray:
    """Per measured frequency, the index into ``watched`` of the nearest
    watched frequency, or -1 if none is within tolerance.  ``argmin``
    keeps the first of equal distances, so a tie goes to the lower
    frequency, as ``min`` over the sorted list picks it."""
    watched = np.array(detector.watched)
    distance = np.abs(watched - measured[:, None])
    nearest = distance.argmin(axis=1)
    return np.where(distance.min(axis=1) <= detector.tolerance_hz, nearest, -1)


def unshadowed(frequencies: np.ndarray, levels_db: np.ndarray) -> np.ndarray:
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
