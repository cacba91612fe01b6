"""Speakers and microphones: the physical endpoints of the sound channel.

The paper uses "low-cost speakers, microphones and Raspberry Pis" (§1)
with empirically observed limits: a ~30 ms minimum tone length, a 20 Hz
frequency separability floor, a 30 dB minimum emission level, and a
usable budget of roughly 1000 simultaneous frequencies in the audible
band (§3, §5).  These classes encode those hardware envelopes so
higher layers can validate Music Protocol messages against them.
"""

from __future__ import annotations

from collections import OrderedDict
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
    #: Memoized unit-variance self-noise per (start sample, length).
    #: Self-noise is already deterministic per (seed, start), so the
    #: cache only skips the generator when the same window is
    #: re-captured (array stations, repeated controller polls) — it
    #: cannot change what a capture sounds like.
    _noise_cache: OrderedDict = field(
        default_factory=OrderedDict, init=False, repr=False, compare=False
    )

    #: Bound on the per-microphone self-noise memo (windows).
    NOISE_CACHE_SIZE = 32

    def record(
        self, channel: AcousticChannel, start: float, end: float
    ) -> AudioSignal:
        """Capture the channel mixture over ``[start, end)``.

        Adds the capsule's own noise floor on top of whatever arrives
        through the air.  Self-noise is seeded per (seed, start) so
        repeated captures of the same window are identical but distinct
        windows are independent.  The clean mixture comes from the
        channel's vectorized (and window-memoized) render path.
        """
        if channel.sample_rate != self.sample_rate:
            raise ValueError(
                f"microphone rate {self.sample_rate} != channel rate "
                f"{channel.sample_rate}"
            )
        clean = channel.render_at(self.position, start, end)
        if len(clean) == 0:
            return clean
        key = (int(round(start * self.sample_rate)), len(clean))
        unit_noise = self._noise_cache.get(key)
        if unit_noise is None:
            rng = np.random.default_rng((self.seed, key[0]))
            unit_noise = rng.standard_normal(len(clean))
            unit_noise.setflags(write=False)
            self._noise_cache[key] = unit_noise
            if len(self._noise_cache) > self.NOISE_CACHE_SIZE:
                self._noise_cache.popitem(last=False)
        else:
            self._noise_cache.move_to_end(key)
        noise = unit_noise * db_to_amplitude(self.self_noise_db)
        return AudioSignal(clean.samples + noise, self.sample_rate)
