"""Tone synthesis: the speaker-side half of Music-Defined Networking.

The paper drives cheap speakers from Raspberry Pis attached to Zodiac FX
switches.  A Music Protocol message tells the Pi *frequency*, *duration*
and *intensity*; the Pi then plays a tone.  This module synthesizes those
tones.

Two details matter for faithful reproduction:

* **Envelopes.**  A rectangular (hard on/off) tone has sinc-shaped
  sidelobes that smear energy into neighbouring FFT bins.  The paper
  found a 20 Hz guard between frequencies sufficient; that only works
  when tones are shaped.  We apply a raised-cosine attack/release ramp
  by default.

* **Calibration.**  Intensity is expressed in dB SPL so the "at least
  30 dB" requirement from Section 3 and the "85 dBA datacenter" noise
  level live on the same scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .signal import DEFAULT_SAMPLE_RATE, AudioSignal, db_to_amplitude

#: Default raised-cosine attack/release ramp, seconds.  5 ms keeps
#: 30 ms tones (the shortest the paper's testbed produced) mostly flat.
DEFAULT_RAMP = 0.005

#: Ramp cap for adaptive shaping, seconds.
MAX_SIGNALLING_RAMP = 0.025

#: Fraction of the tone duration devoted to each ramp under adaptive
#: shaping.  0.25 makes a short tone fully Hann-shaped (ramps meet in
#: the middle at duration/4 each side of a half-length plateau).
SIGNALLING_RAMP_FRACTION = 0.25


def signalling_ramp(duration: float) -> float:
    """The adaptive ramp used for Music Protocol tones.

    Short tones need aggressive shaping: a 50 ms rectangular-ish tone
    has envelope sidelobes every 20 Hz at only ~-13 dB, which lands
    exactly on the paper's 20 Hz frequency grid and cross-triggers
    neighbouring plan slots.  Ramping 25% of the duration on each side
    pushes everything beyond ±40 Hz below -27 dB (below -45 dB past
    ±60 Hz), at the cost of a slightly wider mainlobe.  See DESIGN.md
    §5 ("tone envelope").
    """
    return min(MAX_SIGNALLING_RAMP, duration * SIGNALLING_RAMP_FRACTION)


@lru_cache(maxsize=1024)
def _cached_envelope(num_samples: int, ramp_len: int) -> np.ndarray:
    """Memoized raised-cosine envelope, keyed by (length, ramp length).

    The channel render hot path re-applies the same handful of
    envelopes (one per distinct tone duration on the frequency plan) to
    every overlapping capture window, so envelopes are built once and
    shared.  Cached arrays are read-only; callers that need to mutate
    must copy.
    """
    envelope = np.ones(num_samples)
    if ramp_len > 0:
        ramp_curve = 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, ramp_len)))
        envelope[:ramp_len] = ramp_curve
        envelope[num_samples - ramp_len :] = ramp_curve[::-1]
    envelope.setflags(write=False)
    return envelope


def raised_cosine_envelope(
    num_samples: int, sample_rate: int, ramp: float = DEFAULT_RAMP
) -> np.ndarray:
    """An amplitude envelope with raised-cosine attack and release.

    The ramp is shortened automatically when the tone is too short to
    fit two full ramps.  Returns a cached, read-only array (the render
    hot path reuses one envelope per ``(tone length, ramp length)``).
    """
    if num_samples <= 0:
        return np.zeros(0)
    ramp_len = min(int(round(ramp * sample_rate)), num_samples // 2)
    return _cached_envelope(num_samples, ramp_len)


def sine_tone(
    frequency: float,
    duration: float,
    level_db: float = 60.0,
    sample_rate: int = DEFAULT_SAMPLE_RATE,
    phase: float = 0.0,
    ramp: float = DEFAULT_RAMP,
) -> AudioSignal:
    """Synthesize a pure tone.

    Parameters
    ----------
    frequency:
        Tone frequency in Hz; must sit below the Nyquist limit.
    duration:
        Tone length in seconds.
    level_db:
        RMS sound pressure level in dB SPL.
    phase:
        Initial phase in radians.
    ramp:
        Raised-cosine attack/release duration in seconds (0 disables
        shaping and produces a rectangular tone).
    """
    if frequency <= 0:
        raise ValueError(f"frequency must be positive, got {frequency}")
    if frequency >= sample_rate / 2:
        raise ValueError(
            f"frequency {frequency} Hz exceeds Nyquist limit for "
            f"sample rate {sample_rate}"
        )
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    count = int(round(duration * sample_rate))
    t = np.arange(count) / sample_rate
    # RMS of a sine is amplitude / sqrt(2); compensate so level_db is RMS.
    amplitude = db_to_amplitude(level_db) * np.sqrt(2.0)
    samples = amplitude * np.sin(2.0 * np.pi * frequency * t + phase)
    samples *= raised_cosine_envelope(count, sample_rate, ramp)
    return AudioSignal(samples, sample_rate)


@dataclass(frozen=True)
class ToneSpec:
    """A tone request: what a Music Protocol message asks a speaker to play.

    Attributes
    ----------
    frequency:
        Tone frequency, Hz.
    duration:
        Tone duration, seconds.
    level_db:
        Emission level at the speaker, dB SPL.
    """

    frequency: float
    duration: float
    level_db: float = 60.0

    def __post_init__(self) -> None:
        if self.frequency <= 0:
            raise ValueError(f"frequency must be positive, got {self.frequency}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
