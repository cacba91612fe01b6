"""FFT spectrum analysis — the listening half of Music-Defined Networking.

The paper's controller "uses the Fast Fourier Transform to process
multiple sounds captured by the listening device and to identify the
frequencies played by a switch" (Figure 2).  This module provides the
windowed-FFT pipeline: magnitude spectra, noise-floor estimation, peak
picking with parabolic interpolation, and a timed analysis entry point
used to regenerate Figure 2b's processing-time CDF.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .signal import SILENCE_DB, AudioSignal, amplitude_to_db


@lru_cache(maxsize=256)
def hann_taper(count: int) -> tuple[np.ndarray, float]:
    """Cached Hann taper and coherent-gain factor for one window length.

    The listening loop analyzes a stream of identically sized capture
    windows, so the taper and its coherent gain (``sum(taper)/count``,
    the factor that keeps magnitudes RMS-calibrated) are computed once
    per length and shared by the FFT analyzer and
    :func:`~repro.audio.goertzel.goertzel_magnitude`.  The returned
    array is read-only; callers must not mutate it.
    """
    taper = np.hanning(count)
    taper.setflags(write=False)
    gain = float(np.sum(taper)) / count if count else 1.0
    return taper, gain


@dataclass(frozen=True)
class Spectrum:
    """A one-sided magnitude spectrum of an analysis window.

    Attributes
    ----------
    frequencies:
        Bin centre frequencies, Hz (ascending).
    magnitudes:
        Linear RMS-calibrated magnitude per bin (same pressure units as
        :class:`~repro.audio.signal.AudioSignal` samples).
    sample_rate:
        Sample rate of the analysed window.
    window_duration:
        Length of the analysed window, seconds.
    """

    frequencies: np.ndarray
    magnitudes: np.ndarray
    sample_rate: int
    window_duration: float

    @property
    def bin_width(self) -> float:
        """Frequency resolution in Hz (spacing between bins)."""
        if len(self.frequencies) < 2:
            return 0.0
        return float(self.frequencies[1] - self.frequencies[0])

    def magnitude_at(self, frequency: float) -> float:
        """Linear magnitude of the bin nearest ``frequency``."""
        if len(self.frequencies) == 0:
            return 0.0
        index = int(np.argmin(np.abs(self.frequencies - frequency)))
        return float(self.magnitudes[index])

    def level_at(self, frequency: float) -> float:
        """dB SPL level of the bin nearest ``frequency``."""
        return amplitude_to_db(self.magnitude_at(frequency))

    def band_power(self, low_hz: float, high_hz: float) -> float:
        """Total power (sum of squared magnitudes) in ``[low_hz, high_hz]``."""
        mask = (self.frequencies >= low_hz) & (self.frequencies <= high_hz)
        return float(np.sum(np.square(self.magnitudes[mask])))

    def noise_floor(self) -> float:
        """Robust estimate of the broadband noise magnitude.

        The median bin magnitude is insensitive to a handful of strong
        tonal peaks, which is what makes detection *noise-relative*:
        thresholds are set in dB above this floor rather than at an
        absolute level (see DESIGN.md §5).
        """
        return median(self.magnitudes)

    def noise_floor_db(self) -> float:
        """The noise floor in dB SPL."""
        floor = self.noise_floor()
        return amplitude_to_db(floor) if floor > 0 else SILENCE_DB


def median(values: np.ndarray) -> float:
    """``float(np.median(values))`` of a 1-D array, bit for bit: the
    one-row call of :func:`row_medians`; 0.0 when ``values`` is empty."""
    if len(values) == 0:
        return 0.0
    return float(row_medians(values.reshape(1, -1))[0])


def row_medians(values: np.ndarray) -> np.ndarray:
    """``np.median`` of each row of a 2-D array with at least one
    column, bit for bit, from one axis-1 ``np.partition``: the middle
    value, or for an even count the mean of the two middle values,
    summed and halved as ``np.mean`` does; NaN where the row holds a
    NaN."""
    size = values.shape[1]
    half = size // 2
    if size % 2:
        part = np.partition(values, (half, size - 1), axis=1)
        middle = part[:, half]
    else:
        part = np.partition(values, (half - 1, half, size - 1), axis=1)
        middle = (part[:, half - 1] + part[:, half]) / 2
    return np.where(np.isnan(part[:, -1]), math.nan, middle)


@dataclass(frozen=True, eq=False)
class AnalysisPlan:
    """What analysing a window of one length needs besides its samples:
    the taper (``None`` for rect), FFT length, per-bin calibration
    ``scale``, and bin frequencies and width.  Built once per length."""

    taper: np.ndarray | None
    n_fft: int
    scale: np.ndarray
    frequencies: np.ndarray
    bin_width: float

    def magnitudes(self, frames: np.ndarray) -> np.ndarray:
        """RMS-calibrated magnitudes of one window (1-D) or a batch of
        windows (2-D, one per row)."""
        if self.taper is not None:
            frames = frames * self.taper
        return np.abs(np.fft.rfft(frames, n=self.n_fft)) * self.scale


@lru_cache(maxsize=64)
def _analysis_plan(window: str, zero_pad_factor: int, count: int,
                   sample_rate: int) -> AnalysisPlan:
    if window == "hann":
        taper, gain = hann_taper(count)
    else:
        taper, gain = None, 1.0
    n_fft = count * zero_pad_factor
    # A sinusoid of RMS level r shows |rfft| = r * sqrt(2) * count *
    # gain / 2 in its bin; the scale maps that back to r.  The DC bin
    # and (for even n_fft) the Nyquist bin have no mirrored negative
    # bin to share the energy with, so they take no sqrt(2).
    scale = np.full(n_fft // 2 + 1, math.sqrt(2.0))
    scale[0] = 1.0
    if n_fft % 2 == 0 and n_fft > 1:
        scale[-1] = 1.0
    if gain:
        scale /= count * gain
    else:
        # An all-zero taper (the 2-point Hann) passes no signal: every
        # magnitude is 0, not 0 * inf.
        scale[:] = 0.0
    frequencies = np.fft.rfftfreq(n_fft, 1.0 / sample_rate)
    scale.setflags(write=False)
    frequencies.setflags(write=False)
    bin_width = float(frequencies[1] - frequencies[0]) if n_fft > 1 else 0.0
    return AnalysisPlan(taper, n_fft, scale, frequencies, bin_width)


def spectral_peak_rows(
    frequencies: np.ndarray, bin_width: float, magnitudes: np.ndarray,
    min_magnitudes: np.ndarray, lo: int, hi: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The local maxima of each row of ``magnitudes`` (one spectrum per
    row) among interior bins ``[lo, hi)`` that reach the row's
    ``min_magnitudes`` entry, as columns ``(row, frequency, magnitude)``
    sorted by row and then loudest first (ties in ascending frequency).
    Frequencies are refined by clamped three-point parabolic
    interpolation, in the IEEE operations of the scalar formula
    ``frequency + clamp(0.5 * (below - above) / denominator) *
    bin_width`` (offset 0 where the denominator is 0)."""
    left, centre, right = (magnitudes[:, lo + shift : hi + shift]
                           for shift in (-1, 0, 1))
    found = ((centre > left) & (
        centre >= np.maximum(right, min_magnitudes[:, None]))).nonzero()
    # Flat positions of the peaks, in (row, bin) order.
    at = found[0] * magnitudes.shape[1] + (found[1] + lo)
    flat = magnitudes.ravel()
    peak = flat.take(at)
    # Stable: equal peaks of a row keep ascending frequency order.
    order = np.lexsort((-peak, found[0]))
    at, peak = at.take(order), peak.take(order)
    below, above = flat.take(at - 1), flat.take(at + 1)
    offset = np.zeros(len(peak))
    denominator = below - 2.0 * peak + above
    np.divide(0.5 * (below - above), denominator, out=offset,
              where=denominator != 0.0)
    np.maximum(offset, -0.5, out=offset)
    np.minimum(offset, 0.5, out=offset)
    columns = magnitudes.shape[1]
    return (at // columns, frequencies.take(at % columns) + offset * bin_width,
            peak)


class SpectrumAnalyzer:
    """Windowed-FFT analyzer with Hann weighting.

    Parameters
    ----------
    window:
        Window function name: ``"hann"`` (default) or ``"rect"``.
    zero_pad_factor:
        FFT length multiplier (>= 1).  Padding interpolates the
        spectrum, sharpening frequency estimates without changing true
        resolution.
    """

    def __init__(self, window: str = "hann", zero_pad_factor: int = 1) -> None:
        if window not in ("hann", "rect"):
            raise ValueError(f"unknown window {window!r}")
        if zero_pad_factor < 1:
            raise ValueError("zero_pad_factor must be >= 1")
        self.window = window
        self.zero_pad_factor = zero_pad_factor

    def analyze(self, signal: AudioSignal) -> Spectrum:
        """Compute the one-sided magnitude spectrum of a window."""
        count = len(signal)
        if count == 0:
            empty = np.zeros(0)
            return Spectrum(empty, empty.copy(), signal.sample_rate, 0.0)
        plan = self.plan(count, signal.sample_rate)
        return Spectrum(plan.frequencies, plan.magnitudes(signal.samples),
                        signal.sample_rate, signal.duration)

    def plan(self, count: int, sample_rate: int) -> AnalysisPlan:
        """The cached :class:`AnalysisPlan` for ``count``-sample windows
        (``count`` >= 1); its ``magnitudes`` of a ``(T, count)`` frame
        matrix are one batched rfft, row ``t`` equal to :meth:`analyze`
        of frame ``t``."""
        return _analysis_plan(self.window, self.zero_pad_factor, count,
                              sample_rate)

    def timed_analyze(self, signal: AudioSignal) -> tuple[Spectrum, float]:
        """Analyze a window and report elapsed wall-clock seconds.

        This is the measurement behind Figure 2b: the paper reports
        that ~90% of ~50 ms samples were processed in <= 0.35 ms.
        """
        start = time.perf_counter()
        spectrum = self.analyze(signal)
        elapsed = time.perf_counter() - start
        return spectrum, elapsed


def power_spectrogram(
    signal: AudioSignal,
    frame_duration: float = 0.05,
    hop_duration: float | None = None,
    analyzer: SpectrumAnalyzer | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Short-time magnitude spectrogram of a signal.

    Returns
    -------
    (times, frequencies, magnitudes):
        ``times`` — frame start times (seconds), shape ``(T,)``;
        ``frequencies`` — bin frequencies (Hz), shape ``(F,)``;
        ``magnitudes`` — linear magnitudes, shape ``(T, F)``.

    All frames are analyzed with one batched 2-D rfft over a strided
    frame matrix (no per-frame Python loop).  When the signal is
    shorter than one frame the result is shape-consistent: ``times`` is
    empty, but ``frequencies`` still describes the ``F`` bins a full
    frame would produce and ``magnitudes`` has shape ``(0, F)``, so
    consumers such as :func:`~repro.audio.mel.mel_spectrogram` can
    build their filterbanks unconditionally.
    """
    analyzer = analyzer or SpectrumAnalyzer()
    times, frames = signal.frame_matrix(frame_duration, hop_duration)
    if frames.shape[1] == 0:
        return np.zeros(0), np.zeros(0), np.zeros((0, 0))
    plan = analyzer.plan(frames.shape[1], signal.sample_rate)
    return times, plan.frequencies, plan.magnitudes(frames)
