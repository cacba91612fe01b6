"""Rotor acoustics: the server cooling fan of Section 7.

A rotating fan radiates a *line spectrum* on top of broadband flow
noise: tones at the blade-pass frequency (``rpm / 60 × blades``) and
its harmonics, plus a weaker shaft-rate tone.  Those narrowband lines
are what Figure 6 shows standing above the datacenter wash, and their
disappearance is what the Figure 7 detector keys on.

The model supports failure injection with a physical coast-down: when a
fan loses power it does not fall silent instantly — RPM (and therefore
both tone frequency and level) decays over a spin-down period, which is
the transient the failure detector must ride through.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..audio.signal import DEFAULT_SAMPLE_RATE, AudioSignal, db_to_amplitude


@dataclass
class FanModel:
    """One cooling fan's acoustic signature.

    Attributes
    ----------
    rpm:
        Nominal rotation speed.  Typical 1U server fans run
        6 000–12 000 RPM.
    num_blades:
        Blade count; sets the blade-pass frequency.
    level_db:
        Level of the blade-pass fundamental at the fan, dB SPL.
    num_harmonics:
        Blade-pass harmonics radiated.
    harmonic_rolloff_db:
        Per-harmonic attenuation, dB.
    broadband_db:
        Level of the turbulent flow-noise bed, dB SPL.
    rpm_jitter:
        Fractional slow wander of RPM (belt/bearing variation).
    seed:
        Seed for jitter and broadband noise.
    """

    rpm: float = 9_000.0
    num_blades: int = 7
    level_db: float = 68.0
    num_harmonics: int = 5
    harmonic_rolloff_db: float = 5.0
    broadband_db: float = 52.0
    rpm_jitter: float = 0.002
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rpm <= 0:
            raise ValueError(f"rpm must be positive, got {self.rpm}")
        if self.num_blades < 2:
            raise ValueError(f"num_blades must be >= 2, got {self.num_blades}")

    @property
    def blade_pass_hz(self) -> float:
        """Blade-pass frequency: the fan's acoustic fingerprint."""
        return self.rpm / 60.0 * self.num_blades

    @property
    def shaft_hz(self) -> float:
        """Shaft rotation frequency (one tone per revolution)."""
        return self.rpm / 60.0

    def render(
        self,
        duration: float,
        sample_rate: int = DEFAULT_SAMPLE_RATE,
        stop_time: float | None = None,
        spin_down: float = 1.5,
        lead_in: float = 0.0,
    ) -> AudioSignal:
        """Synthesize the fan's sound at the fan position.

        Parameters
        ----------
        duration:
            Total rendered length, seconds.
        stop_time:
            If given, the fan loses power at this time and coasts down
            over ``spin_down`` seconds (frequency and level decay to
            zero).  ``stop_time <= 0`` renders a fan that never ran.
        lead_in:
            Extra steady hum *prepended* before t = 0 (the fan was
            already spinning when the render window opens).  The lead
            segment uses a derived noise seed so the samples for
            t >= 0 stay bit-identical to a render without lead-in.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        if lead_in > 0:
            never_ran = stop_time is not None and stop_time <= 0
            pre = (
                AudioSignal(
                    np.zeros(int(round(lead_in * sample_rate))), sample_rate
                )
                if never_ran
                else replace(self, seed=self.seed + 104_729).render(
                    lead_in, sample_rate
                )
            )
            main = self.render(duration, sample_rate, stop_time, spin_down)
            return AudioSignal(
                np.concatenate([pre.samples, main.samples]), sample_rate
            )
        count = int(round(duration * sample_rate))
        if stop_time is not None and stop_time <= 0:
            return AudioSignal(np.zeros(count), sample_rate)
        rng = np.random.default_rng(self.seed)
        t = np.arange(count) / sample_rate

        # Speed profile: 1.0 while powered, exponential-ish coast-down
        # after stop_time.  Frequency and radiated level both track it.
        speed = np.ones(count)
        if stop_time is not None:
            coasting = t >= stop_time
            tau = max(spin_down, 1e-3) / 3.0
            speed[coasting] = np.exp(-(t[coasting] - stop_time) / tau)
            speed[speed < 0.02] = 0.0

        # Slow RPM wander (random walk, low-pass by cumulative mean).
        wander = 1.0 + self.rpm_jitter * np.cumsum(
            rng.standard_normal(count)
        ) / np.sqrt(np.arange(1, count + 1))

        instantaneous_hz = speed * wander
        samples = np.zeros(count)
        nyquist = sample_rate / 2

        def add_tone(base_hz: float, level_db: float) -> None:
            if base_hz >= nyquist:
                return
            phase = 2.0 * np.pi * np.cumsum(base_hz * instantaneous_hz) / sample_rate
            amplitude = db_to_amplitude(level_db) * np.sqrt(2.0)
            # Radiated aerodynamic power falls steeply with speed
            # (~5th power law for fan noise); square it on amplitude.
            samples_local = amplitude * (speed ** 2.5) * np.sin(phase)
            samples[:] += samples_local

        add_tone(self.shaft_hz, self.level_db - 12.0)
        for k in range(1, self.num_harmonics + 1):
            add_tone(
                self.blade_pass_hz * k,
                self.level_db - (k - 1) * self.harmonic_rolloff_db,
            )

        # Broadband flow noise, also gated by speed.
        flow = rng.standard_normal(count)
        flow_rms = np.sqrt(np.mean(np.square(flow)))
        flow *= db_to_amplitude(self.broadband_db) / max(flow_rms, 1e-12)
        samples += flow * (speed ** 2.5)

        return AudioSignal(samples, sample_rate)
