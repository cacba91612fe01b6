"""Speakers and microphones: the physical endpoints of the sound channel.

The paper uses "low-cost speakers, microphones and Raspberry Pis" (§1)
with empirically observed limits: a ~30 ms minimum tone length, a 20 Hz
frequency separability floor, a 30 dB minimum emission level, and a
usable budget of roughly 1000 simultaneous frequencies in the audible
band (§3, §5).  These classes encode those hardware envelopes so
higher layers can validate Music Protocol messages against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import AcousticChannel, Position
from .signal import DEFAULT_SAMPLE_RATE, AudioSignal, db_to_amplitude
from .synth import ToneSpec


class DeviceCapabilityError(ValueError):
    """A tone request exceeds what the device can physically produce."""


@dataclass
class Speaker:
    """A cheap speaker attached to a network device.

    Attributes
    ----------
    position:
        Where the speaker sits in the room.
    min_frequency, max_frequency:
        Reproducible band, Hz.  Cheap drivers roll off below ~100 Hz
        and the paper stays in the audible range.
    max_level_db:
        Loudest tone the driver can produce, dB SPL at 1 m.
    min_duration:
        Shortest tone the hardware can gate cleanly; the paper measured
        ~30 ms on its testbed.
    """

    position: Position = field(default_factory=Position)
    min_frequency: float = 100.0
    max_frequency: float = 8_000.0
    max_level_db: float = 90.0
    min_duration: float = 0.03

    def validate(self, spec: ToneSpec) -> None:
        """Raise :class:`DeviceCapabilityError` if the tone is unplayable."""
        if not self.min_frequency <= spec.frequency <= self.max_frequency:
            raise DeviceCapabilityError(
                f"frequency {spec.frequency} Hz outside speaker band "
                f"[{self.min_frequency}, {self.max_frequency}]"
            )
        if spec.duration < self.min_duration:
            raise DeviceCapabilityError(
                f"duration {spec.duration * 1000:.1f} ms below speaker "
                f"minimum {self.min_duration * 1000:.1f} ms"
            )
        if spec.level_db > self.max_level_db:
            raise DeviceCapabilityError(
                f"level {spec.level_db} dB exceeds speaker maximum "
                f"{self.max_level_db} dB"
            )

    def play(
        self, channel: AcousticChannel, start_time: float, spec: ToneSpec
    ) -> None:
        """Validate then schedule a tone on the channel."""
        self.validate(spec)
        channel.play_tone(start_time, spec, self.position)


@dataclass
class Microphone:
    """A microphone capturing from an :class:`AcousticChannel`.

    Attributes
    ----------
    position:
        Where the capsule sits.
    sample_rate:
        Capture rate.
    self_noise_db:
        Electrical noise floor the capsule adds, dB SPL equivalent.
    seed:
        Seed for the self-noise generator, so captures are reproducible
        while still differing between (seeded) microphones.
    """

    position: Position = field(default_factory=Position)
    sample_rate: int = DEFAULT_SAMPLE_RATE
    self_noise_db: float = 15.0
    seed: int = 0

    def record(
        self, channel: AcousticChannel, start: float, end: float
    ) -> AudioSignal:
        """Capture the channel mixture over ``[start, end)``: the
        one-window call of :meth:`record_block`."""
        if end < start:
            raise ValueError(f"end ({end}) must be >= start ({start})")
        return AudioSignal(self.record_block(channel, (start,), (end,))[0],
                           self.sample_rate)

    def record_block(self, channel: AcousticChannel, starts,
                     ends) -> np.ndarray:
        """Capture the windows ``[starts[i], ends[i])``, one row each, for
        the prefix of them that :meth:`AcousticChannel.render_block`
        renders.

        Adds the capsule's own noise floor on top of whatever arrives
        through the air.  Self-noise is seeded per (seed, start sample)
        so repeated captures of the same window are identical but
        distinct windows are independent.
        """
        if channel.sample_rate != self.sample_rate:
            raise ValueError(
                f"microphone rate {self.sample_rate} != channel rate "
                f"{channel.sample_rate}"
            )
        clean = channel.render_block(self.position, starts, ends)
        if not clean.shape[1]:
            return clean
        captures = np.empty_like(clean)
        for row, start in zip(captures, np.asarray(
                starts, dtype=float).reshape(-1).tolist()):
            np.random.default_rng(
                (self.seed, round(start * self.sample_rate))
            ).standard_normal(out=row)
        captures *= db_to_amplitude(self.self_noise_db)
        captures += clean
        return captures
