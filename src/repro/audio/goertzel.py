"""Single-frequency magnitude: one DFT bin instead of a full FFT.

When the caller already knows the one frequency it cares about, a full
FFT is wasteful.  The Goertzel algorithm evaluates a single DFT bin in
O(N).  The FSK modem's preamble aligner (:mod:`repro.audio.modem`)
slides a window around a coarse preamble hit and uses
:func:`goertzel_magnitude` to find the offset where the preamble tone's
energy peaks.
"""

from __future__ import annotations

import math

import numpy as np

from .fft import hann_taper
from .signal import AudioSignal


def goertzel_magnitude(signal: AudioSignal, frequency: float) -> float:
    """RMS-calibrated magnitude of one frequency in a window.

    Matches the calibration of :class:`~repro.audio.fft.SpectrumAnalyzer`:
    a pure sinusoid of RMS level ``r`` at ``frequency`` reports ``r``.
    Uses a Hann window for sidelobe suppression, like the FFT analyzer.
    """
    count = len(signal)
    if count == 0:
        return 0.0
    if frequency < 0 or frequency > signal.sample_rate / 2:
        raise ValueError(
            f"frequency {frequency} outside [0, Nyquist] for "
            f"sample rate {signal.sample_rate}"
        )
    taper, gain = hann_taper(count)
    samples = signal.samples * taper

    # Evaluate the single DFT bin nearest the target frequency.  The
    # classic Goertzel recurrence is a scalar loop; the equivalent dot
    # product form below computes the identical bin and vectorizes.
    k = int(round(frequency * count / signal.sample_rate))
    omega = 2.0 * math.pi * k / count
    n = np.arange(count)
    real = float(np.dot(samples, np.cos(omega * n)))
    imag = float(np.dot(samples, np.sin(omega * n)))
    magnitude = math.hypot(real, imag)
    # One-sided x-sqrt(2) RMS correction, except at DC and Nyquist
    # which have no mirrored bin (matches SpectrumAnalyzer's
    # one_sided_scale calibration).
    scale = 1.0 if k == 0 or 2 * k == count else math.sqrt(2.0)
    return magnitude * scale / (count * gain)
