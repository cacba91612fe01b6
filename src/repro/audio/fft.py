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


@lru_cache(maxsize=256)
def one_sided_scale(n_fft: int) -> np.ndarray:
    """Cached one-sided amplitude correction per rfft bin.

    Interior bins of a one-sided spectrum carry half the sinusoid's
    energy (the other half lives in the mirrored negative bin), hence
    the x-sqrt(2) RMS correction.  The DC bin and — for even FFT
    lengths — the Nyquist bin have no mirror, so the correction must
    not be applied there or their levels are over-reported by sqrt(2).
    """
    scale = np.full(n_fft // 2 + 1, math.sqrt(2.0))
    scale[0] = 1.0
    if n_fft % 2 == 0 and len(scale) > 1:
        scale[-1] = 1.0
    scale.setflags(write=False)
    return scale


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
        if len(self.magnitudes) == 0:
            return 0.0
        return float(np.median(self.magnitudes))

    def noise_floor_db(self) -> float:
        """The noise floor in dB SPL."""
        floor = self.noise_floor()
        return amplitude_to_db(floor) if floor > 0 else SILENCE_DB


@dataclass(frozen=True)
class SpectralPeak:
    """A detected spectral peak.

    Attributes
    ----------
    frequency:
        Interpolated peak frequency, Hz.
    magnitude:
        Linear magnitude at the peak.
    prominence_db:
        Height of the peak above the spectrum's noise floor, dB.
    """

    frequency: float
    magnitude: float
    prominence_db: float

    @property
    def level_db(self) -> float:
        return amplitude_to_db(self.magnitude)


class SpectrumAnalyzer:
    """Windowed-FFT analyzer with Hann weighting and peak picking.

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
        frequencies, magnitudes = self.analyze_block(
            signal.samples[np.newaxis, :], signal.sample_rate
        )
        return Spectrum(
            frequencies, magnitudes[0], signal.sample_rate, signal.duration
        )

    def analyze_block(
        self, frames: np.ndarray, sample_rate: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """One-sided magnitude spectra of a batch of equal-length frames.

        Parameters
        ----------
        frames:
            Sample matrix of shape ``(T, N)`` — ``T`` analysis windows
            of ``N`` samples each (e.g. from
            :meth:`AudioSignal.frame_matrix`).
        sample_rate:
            Sample rate of the frames, Hz.

        Returns
        -------
        tuple[numpy.ndarray, numpy.ndarray]
            ``(frequencies, magnitudes)`` — bin frequencies, shape
            ``(F,)``, and RMS-calibrated magnitudes, shape ``(T, F)``.
            Each row equals :meth:`analyze` of the corresponding frame.
        """
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 2:
            raise ValueError(f"frames must be 2-D, got shape {frames.shape}")
        count = frames.shape[1]
        if count == 0:
            return np.zeros(0), np.zeros((frames.shape[0], 0))
        if self.window == "hann":
            taper, gain = hann_taper(count)
            # Coherent gain compensation keeps magnitudes calibrated.
            frames = frames * taper
        else:
            gain = 1.0
        n_fft = count * self.zero_pad_factor
        spectra = np.fft.rfft(frames, n=n_fft, axis=-1)
        frequencies = np.fft.rfftfreq(n_fft, 1.0 / sample_rate)
        # Calibrate so a sinusoid of RMS level r reports magnitude r at
        # its bin: |rfft| at the bin is (peak * count * gain / 2), and
        # peak = r * sqrt(2), hence the sqrt(2)/(count*gain) factor.
        # DC and Nyquist have no mirrored bin, so sqrt(2) is skipped
        # there (see one_sided_scale).
        magnitudes = np.abs(spectra) * (one_sided_scale(n_fft) / (count * gain))
        return frequencies, magnitudes

    def find_peaks(
        self,
        spectrum: Spectrum,
        threshold_db: float = 10.0,
        min_frequency: float = 0.0,
        max_frequency: float | None = None,
        max_peaks: int | None = None,
    ) -> list[SpectralPeak]:
        """Locate tonal peaks standing ``threshold_db`` above the noise floor.

        Peaks are local maxima refined with three-point parabolic
        interpolation, returned sorted by descending magnitude.
        """
        frequencies, magnitudes, floor = self.peak_arrays(
            spectrum, threshold_db, min_frequency, max_frequency
        )
        prominences = 20.0 * np.log10(magnitudes / floor)
        peaks = zip(frequencies.tolist(), magnitudes.tolist(), prominences.tolist())
        return [SpectralPeak(*peak) for peak in peaks][:max_peaks]

    def peak_arrays(
        self,
        spectrum: Spectrum,
        threshold_db: float = 10.0,
        min_frequency: float = 0.0,
        max_frequency: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """:meth:`find_peaks` as parallel arrays ``(frequencies,
        magnitudes)`` in the same order, plus the noise floor.  The sort
        is stable: equal magnitudes keep ascending frequency order."""
        mags = spectrum.magnitudes
        freqs = spectrum.frequencies
        floor = max(spectrum.noise_floor(), 1e-12)
        if len(mags) < 3:
            return np.zeros(0), np.zeros(0), floor
        min_magnitude = floor * 10.0 ** (threshold_db / 20.0)
        high_limit = max_frequency if max_frequency is not None else freqs[-1]
        # Interior bins inside [min_frequency, high_limit] (ascending).
        lo = max(int(np.searchsorted(freqs, min_frequency)), 1)
        hi = min(int(np.searchsorted(freqs, high_limit, "right")), len(mags) - 1)
        hi = max(hi, lo)
        centre = mags[lo:hi]
        index = np.flatnonzero(
            (centre > mags[lo - 1 : hi - 1])
            & (centre >= np.maximum(mags[lo + 1 : hi + 1], min_magnitude))
        ) + lo
        index = index[np.argsort(-mags[index], kind="stable")]
        left, centre, right = mags[index - 1], mags[index], mags[index + 1]
        denominator = left - 2.0 * centre + right
        offset = np.divide(0.5 * (left - right), denominator,
                           out=np.zeros_like(centre),
                           where=denominator != 0.0)
        offset = np.minimum(np.maximum(offset, -0.5), 0.5)
        return freqs[index] + offset * spectrum.bin_width, centre, floor

    def timed_analyze(self, signal: AudioSignal) -> tuple[Spectrum, float]:
        """Analyze a window and report elapsed wall-clock seconds.

        This is the measurement behind Figure 2b: the paper reports
        that ~90% of ~50 ms samples were processed in <= 0.35 ms.
        """
        start = time.perf_counter()
        spectrum = self.analyze(signal)
        elapsed = time.perf_counter() - start
        return spectrum, elapsed


def bandpass_filter(
    signal: AudioSignal, low_hz: float, high_hz: float
) -> AudioSignal:
    """Zero-phase FFT brick-wall band-pass.

    Keeps only ``[low_hz, high_hz]`` without introducing group delay;
    the fault injector uses it to band-limit a narrowband interferer.
    """
    if not 0 <= low_hz < high_hz:
        raise ValueError(f"invalid band [{low_hz}, {high_hz}]")
    if len(signal) == 0:
        return signal
    spectrum = np.fft.rfft(signal.samples)
    frequencies = np.fft.rfftfreq(len(signal), 1.0 / signal.sample_rate)
    spectrum[(frequencies < low_hz) | (frequencies > high_hz)] = 0.0
    return AudioSignal(np.fft.irfft(spectrum, len(signal)),
                       signal.sample_rate)


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
    frequencies, magnitudes = analyzer.analyze_block(frames, signal.sample_rate)
    return times, frequencies, magnitudes


def power_spectrogram_reference(
    signal: AudioSignal,
    frame_duration: float = 0.05,
    hop_duration: float | None = None,
    analyzer: SpectrumAnalyzer | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-frame-loop spectrogram, kept as the scalar reference.

    Same contract as :func:`power_spectrogram` for non-empty results;
    the equivalence suite and micro-benchmarks compare the batched path
    against this implementation.
    """
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
