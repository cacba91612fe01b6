"""The per-frame loops the batched framing and spectrogram are compared
against: :func:`frames` for :meth:`repro.audio.AudioSignal.frame_matrix`
and :func:`power_spectrogram_reference` for
:func:`repro.audio.power_spectrogram` (same contract for non-empty
results)."""

from __future__ import annotations

import numpy as np

from repro.audio import AudioSignal, SpectrumAnalyzer


def frames(signal: AudioSignal, frame_duration: float,
           hop_duration: float | None = None):
    """Yield ``(start_time, frame)`` for each whole frame, one at a
    time: the trailing partial frame is dropped."""
    hop = frame_duration if hop_duration is None else hop_duration
    frame_len = int(round(frame_duration * signal.sample_rate))
    hop_len = int(round(hop * signal.sample_rate))
    start = 0
    while start + frame_len <= len(signal.samples):
        yield (start / signal.sample_rate,
               AudioSignal(signal.samples[start : start + frame_len],
                           signal.sample_rate))
        start += hop_len


def power_spectrogram_reference(
    signal: AudioSignal,
    frame_duration: float = 0.05,
    hop_duration: float | None = None,
    analyzer: SpectrumAnalyzer | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(times, frequencies, magnitudes)``, one analysed frame at a
    time."""
    analyzer = analyzer or SpectrumAnalyzer()
    times = []
    rows = []
    frequencies = np.zeros(0)
    for start, frame in frames(signal, frame_duration, hop_duration):
        spectrum = analyzer.analyze(frame)
        frequencies = spectrum.frequencies
        times.append(start)
        rows.append(spectrum.magnitudes)
    if not rows:
        return np.zeros(0), np.zeros(0), np.zeros((0, 0))
    return np.array(times), frequencies, np.vstack(rows)
