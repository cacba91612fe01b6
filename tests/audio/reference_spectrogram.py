"""The per-frame-loop spectrogram: the reference that the batched
:func:`repro.audio.power_spectrogram` is compared against (same
contract for non-empty results)."""

from __future__ import annotations

import numpy as np

from repro.audio import AudioSignal, SpectrumAnalyzer


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
    for start, frame in signal.frames(frame_duration, hop_duration):
        spectrum = analyzer.analyze(frame)
        frequencies = spectrum.frequencies
        times.append(start)
        rows.append(spectrum.magnitudes)
    if not rows:
        return np.zeros(0), np.zeros(0), np.zeros((0, 0))
    return np.array(times), frequencies, np.vstack(rows)
