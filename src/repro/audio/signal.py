"""Core audio sample container used throughout the acoustic substrate.

Every stage of the Music-Defined Networking pipeline — tone synthesis,
channel propagation, microphone capture, FFT analysis — exchanges audio
as an :class:`AudioSignal`: a 1-D float64 numpy array of pressure
samples paired with a sample rate.  Amplitudes are linear pressure
units where 1.0 corresponds to the reference level ``FULL_SCALE_DB``
(decibels of sound pressure level), so dB arithmetic used by the paper
("sounds of at least 30 dB", "datacenter noise may exceed 85 dBA") maps
directly onto sample magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Sample rate used by default across the testbed (Hz).  16 kHz covers
#: the paper's working band (hundreds of Hz to a few kHz) with margin
#: and keeps FFT windows small, matching the sub-millisecond processing
#: times of Figure 2b.
DEFAULT_SAMPLE_RATE = 16_000

#: Sound pressure level, in dB SPL, that a full-scale (amplitude 1.0)
#: sample represents.  94 dB SPL is the standard microphone calibration
#: reference (1 Pa RMS).
FULL_SCALE_DB = 94.0

#: Floor returned for silent signals instead of ``-inf``.
SILENCE_DB = -120.0


def db_to_amplitude(level_db: float) -> float:
    """Convert a sound pressure level in dB SPL to linear amplitude.

    ``FULL_SCALE_DB`` maps to amplitude 1.0; every -20 dB divides the
    amplitude by 10.
    """
    return 10.0 ** ((level_db - FULL_SCALE_DB) / 20.0)


def amplitude_to_db(amplitude: float) -> float:
    """Convert a linear amplitude to dB SPL (inverse of
    :func:`db_to_amplitude`)."""
    if amplitude <= 0.0:
        return SILENCE_DB
    return FULL_SCALE_DB + 20.0 * math.log10(amplitude)


@dataclass(frozen=True)
class AudioSignal:
    """An immutable span of audio samples.

    Parameters
    ----------
    samples:
        1-D float array of linear pressure samples.
    sample_rate:
        Samples per second.
    """

    samples: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        # Bypass the frozen guard once, during construction only.
        object.__setattr__(self, "samples", samples)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def silence(cls, duration: float, sample_rate: int = DEFAULT_SAMPLE_RATE) -> "AudioSignal":
        """A zero signal lasting ``duration`` seconds."""
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        count = int(round(duration * sample_rate))
        return cls(np.zeros(count), sample_rate)

    @classmethod
    def from_components(
        cls, components: "list[AudioSignal]", sample_rate: int = DEFAULT_SAMPLE_RATE
    ) -> "AudioSignal":
        """Mix a list of signals sample-wise, padding shorter ones with
        silence.  An empty list yields an empty signal."""
        if not components:
            return cls(np.zeros(0), sample_rate)
        for part in components:
            if part.sample_rate != sample_rate:
                raise ValueError(
                    f"component sample rate {part.sample_rate} != {sample_rate}"
                )
        length = max(len(part) for part in components)
        total = np.zeros(length)
        for part in components:
            total[: len(part)] += part.samples
        return cls(total, sample_rate)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        """Length of the signal in seconds."""
        return len(self.samples) / self.sample_rate

    def rms(self) -> float:
        """Root-mean-square amplitude (0.0 for an empty signal)."""
        if len(self.samples) == 0:
            return 0.0
        return float(np.sqrt(np.mean(np.square(self.samples))))

    def level_db(self) -> float:
        """RMS level in dB SPL (``SILENCE_DB`` for silence)."""
        return amplitude_to_db(self.rms())

    def peak(self) -> float:
        """Largest absolute sample value."""
        if len(self.samples) == 0:
            return 0.0
        return float(np.max(np.abs(self.samples)))

    # ------------------------------------------------------------------
    # Transformations (all return new signals)
    # ------------------------------------------------------------------

    def mix(self, other: "AudioSignal") -> "AudioSignal":
        """Sample-wise sum with another signal (shorter one is padded)."""
        return AudioSignal.from_components([self, other], self.sample_rate)

    def scale(self, gain: float) -> "AudioSignal":
        """Multiply every sample by ``gain``."""
        return AudioSignal(self.samples * gain, self.sample_rate)

    def attenuate_db(self, loss_db: float) -> "AudioSignal":
        """Reduce the level by ``loss_db`` decibels."""
        return self.scale(10.0 ** (-loss_db / 20.0))

    def slice_time(self, start: float, end: float) -> "AudioSignal":
        """Extract the sub-signal between ``start`` and ``end`` seconds.

        Bounds are clamped to the signal; a window entirely outside the
        signal yields an empty signal.
        """
        if end < start:
            raise ValueError(f"end ({end}) must be >= start ({start})")
        lo = max(0, int(round(start * self.sample_rate)))
        hi = min(len(self.samples), int(round(end * self.sample_rate)))
        if hi <= lo:
            return AudioSignal(np.zeros(0), self.sample_rate)
        return AudioSignal(self.samples[lo:hi], self.sample_rate)

    def frame_matrix(
        self, frame_duration: float, hop_duration: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """All analysis frames at once, as a strided matrix.

        Frames are ``frame_duration`` long and start every
        ``hop_duration`` (default: ``frame_duration``, non-overlapping);
        the trailing partial frame is dropped, matching fixed-size
        capture buffers.  They come as a zero-copy ``(T, N)`` view built
        with ``sliding_window_view``, so batch analysis (one 2-D FFT)
        can process every frame without a Python loop.

        Returns
        -------
        tuple[numpy.ndarray, numpy.ndarray]
            ``(times, frames)`` — frame start times, shape ``(T,)``,
            and a read-only view of the frame samples, shape ``(T, N)``
            where ``N`` is the frame length in samples.  When the
            signal is shorter than one frame, ``times`` is empty and
            ``frames`` has shape ``(0, N)`` so downstream consumers
            still see a consistent frame length.
        """
        if frame_duration <= 0:
            raise ValueError("frame_duration must be positive")
        hop = frame_duration if hop_duration is None else hop_duration
        if hop <= 0:
            raise ValueError("hop_duration must be positive")
        frame_len = int(round(frame_duration * self.sample_rate))
        hop_len = max(int(round(hop * self.sample_rate)), 1)
        if frame_len < 1 or len(self.samples) < frame_len:
            return np.zeros(0), np.zeros((0, max(frame_len, 0)))
        frames = np.lib.stride_tricks.sliding_window_view(
            self.samples, frame_len
        )[::hop_len]
        # (i * hop_len) / rate, not i * (hop_len / rate): bit-identical
        # to the start times a frame-by-frame loop computes.
        times = (np.arange(len(frames)) * hop_len) / self.sample_rate
        return times, frames
