"""Passive fan-failure detection: Section 7, Figures 6–7.

"To identify failures, we find the total amplitude of each frequency in
recorded sounds with a server fan both on and off; we obtain such
amplitudes by computing the FFT of each given sound sample.  We then
use these amplitudes to classify the state (health) of the fan.  The
difference in amplitude for certain frequencies is considerably larger
when comparing two audio signals of the fan on and off than when
comparing two samples of a functioning fan."

:class:`FanWatchdog` implements exactly that: it captures periodic
samples, computes FFT amplitude profiles, and scores each sample's
*amplitude difference* against a healthy reference profile.  The score
stays near the on↔on baseline while the fan runs and jumps when it
stops; crossing an adaptive threshold raises a failure alert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...audio.channel import AcousticChannel
from ...audio.devices import Microphone
from ...audio.fft import SpectrumAnalyzer
from ...net.stats import TimeSeries


@dataclass(frozen=True)
class FanAlert:
    """A detected fan failure."""

    time: float
    score: float
    threshold: float


def log_amplitude_difference(
    reference: np.ndarray,
    sample: np.ndarray,
    band: "slice | np.ndarray | None" = None,
) -> float:
    """Amplitude difference in the log (dB) domain.

    Summing |Δ dB| per bin makes the score proportional to *how far*
    each signature line fell, not its absolute pressure — a 25 dB
    collapse of a quiet line counts as much as of a loud one.  This is
    what gives the on→off comparisons their "considerably larger"
    separation from on→on jitter (Figure 7) under heavy ambience.
    """
    if reference.shape != sample.shape:
        raise ValueError(
            f"profile shapes differ: {reference.shape} vs {sample.shape}"
        )
    region = band if band is not None else slice(None)
    ref_db = 20.0 * np.log10(np.maximum(reference[region], 1e-12))
    sample_db = 20.0 * np.log10(np.maximum(sample[region], 1e-12))
    return float(np.sum(np.abs(ref_db - sample_db)))


def signature_bins(reference: np.ndarray, prominence: float = 4.0) -> np.ndarray:
    """Indices of the tonal bins in a healthy reference profile.

    A bin belongs to the signature if its magnitude exceeds
    ``prominence ×`` the profile's median — i.e. it carries a
    narrowband line (blade-pass harmonics) rather than broadband wash.
    Comparing only these bins keeps the score's noise floor independent
    of the FFT size: summing |Δ| over thousands of noise-only bins
    would otherwise swamp the handful of line bins that actually change
    when a fan dies.
    """
    if len(reference) == 0:
        return np.zeros(0, dtype=int)
    floor = max(float(np.median(reference)), 1e-15)
    bins = np.where(reference > prominence * floor)[0]
    if len(bins) == 0:
        # Degenerate profile (no tonal content): fall back to all bins.
        bins = np.arange(len(reference))
    return bins


class FanWatchdog:
    """Periodic FFT amplitude-difference monitor for one server.

    Parameters
    ----------
    channel, microphone:
        The listening scene (see :mod:`repro.fans.room`).
    sample_duration:
        Length of each captured sample, seconds.
    period:
        Spacing between sample starts, seconds.
    baseline_samples:
        How many initial samples form the healthy reference profile
        (averaged).  Alerts are inhibited during the baseline phase.
    threshold_factor:
        Alert when a sample's difference score exceeds
        ``threshold_factor ×`` the largest score observed among the
        baseline (on↔on) comparisons.
    band_hz:
        Restrict the comparison to this frequency band before signature
        selection; None uses the whole spectrum.
    signature_prominence:
        Multiplier over the reference's median magnitude above which a
        bin counts as part of the fan's signature (see
        :func:`signature_bins`).
    smoothing_bins:
        Boxcar width (bins) applied to every profile before comparison.
        Fan RPM wanders a fraction of a percent, smearing each line
        over a few bins between samples; smoothing makes the profiles
        insensitive to that wander while a vanished line still changes
        them completely.
    """

    def __init__(
        self,
        channel: AcousticChannel,
        microphone: Microphone,
        sample_duration: float = 0.25,
        period: float = 0.5,
        baseline_samples: int = 4,
        threshold_factor: float = 3.0,
        band_hz: tuple[float, float] | None = None,
        signature_prominence: float = 4.0,
        smoothing_bins: int = 11,
    ) -> None:
        if baseline_samples < 2:
            raise ValueError("need at least 2 baseline samples")
        if sample_duration <= 0 or period < sample_duration:
            raise ValueError("need period >= sample_duration > 0")
        if smoothing_bins < 1:
            raise ValueError("smoothing_bins must be >= 1")
        self.channel = channel
        self.microphone = microphone
        self.sample_duration = sample_duration
        self.period = period
        self.baseline_samples = baseline_samples
        self.threshold_factor = threshold_factor
        self.band_hz = band_hz
        self.signature_prominence = signature_prominence
        self.smoothing_bins = smoothing_bins
        self._analyzer = SpectrumAnalyzer()
        self._band_slice: slice | None = None
        self._signature: np.ndarray | None = None
        self._reference: np.ndarray | None = None
        self._baseline_profiles: list[np.ndarray] = []
        self._baseline_scores: list[float] = []
        #: Difference score over time — the Figure 7 blue line.
        self.scores = TimeSeries("fan_watchdog.score")
        self.alerts: list[FanAlert] = []

    # ------------------------------------------------------------------

    def _profile(self, start: float) -> np.ndarray:
        window = self.microphone.record(
            self.channel, start, start + self.sample_duration
        )
        spectrum = self._analyzer.analyze(window)
        if self.band_hz is not None and self._band_slice is None:
            low, high = self.band_hz
            indices = np.where(
                (spectrum.frequencies >= low) & (spectrum.frequencies <= high)
            )[0]
            if len(indices) == 0:
                raise ValueError(f"band {self.band_hz} contains no FFT bins")
            self._band_slice = slice(int(indices[0]), int(indices[-1]) + 1)
        magnitudes = spectrum.magnitudes
        if self.smoothing_bins > 1:
            kernel = np.ones(self.smoothing_bins) / self.smoothing_bins
            magnitudes = np.convolve(magnitudes, kernel, mode="same")
        return magnitudes

    @property
    def threshold(self) -> float:
        """The adaptive alert threshold (NaN until the baseline ends)."""
        if len(self._baseline_scores) < self.baseline_samples - 1:
            return float("nan")
        floor = max(self._baseline_scores) if self._baseline_scores else 0.0
        return self.threshold_factor * max(floor, 1e-12)

    def observe(self, start: float) -> float | None:
        """Process the sample starting at ``start``; returns the score
        (None while accumulating the baseline reference)."""
        profile = self._profile(start)
        if self._reference is None:
            self._baseline_profiles.append(profile)
            if len(self._baseline_profiles) >= self.baseline_samples:
                self._finish_baseline()
            return None
        score = log_amplitude_difference(self._reference, profile, self._signature)
        self.scores.record(start, score)
        if score > self.threshold:
            self.alerts.append(FanAlert(start, score, self.threshold))
        return score

    def _finish_baseline(self) -> None:
        self._reference = np.mean(self._baseline_profiles, axis=0)
        region = self._band_slice if self._band_slice is not None else slice(None)
        offset = region.start or 0 if isinstance(region, slice) else 0
        local = signature_bins(self._reference[region], self.signature_prominence)
        self._signature = local + offset
        # On↔on scores: every baseline sample vs the average.
        self._baseline_scores = [
            log_amplitude_difference(self._reference, profile, self._signature)
            for profile in self._baseline_profiles
        ]

    def run(self, start: float, end: float) -> None:
        """Process samples at ``start, start+period, ...`` up to ``end``.

        Offline convenience for pre-rendered scenes; online use wires
        :meth:`observe` to a simulator timer instead.
        """
        time = start
        while time + self.sample_duration <= end:
            self.observe(time)
            time += self.period

    @property
    def failure_detected(self) -> bool:
        return bool(self.alerts)

    def detection_time(self) -> float | None:
        """When the first alert fired (None if never)."""
        return self.alerts[0].time if self.alerts else None
