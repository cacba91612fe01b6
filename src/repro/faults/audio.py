"""Acoustic-path fault injector: speaker dropout.

:class:`AcousticFaults` mutes speakers: tones emitted during an outage
never reach any listener.

Outage windows are half-open intervals ``[start, end)`` on the shared
simulation clock, with **emission-overlap** semantics: a tone whose
emission interval overlaps an outage is fully muted (a driver cutting
out mid-tone corrupts the whole gated emission).  Whether a tone is
muted therefore depends only on the outage list, never on the clock,
so the channel applies it to the schedule
(:meth:`~repro.audio.channel.AcousticChannel.mute`): a muted tone
leaves the channel when the outage is recorded, or is never kept if it
is scheduled later, and is counted once.  Renders need no fault hook.
"""

from __future__ import annotations

from ..audio.channel import AcousticChannel, Position
from ..net.sim import Simulator
from .harness import FaultCounter, seeded_rng


class AcousticFaults:
    """Channel-side fault injector: speaker dropouts.

    Records each outage on the channel, which drops the muted tones;
    reports the channel's ``tones_muted`` count as its own.
    """

    def __init__(self, sim: Simulator, channel: AcousticChannel,
                 seed: int = 0) -> None:
        self.sim = sim
        self.channel = channel
        self.seed = seed
        self._m_dropouts = FaultCounter("speaker_dropouts")
        self.counters = (self._m_dropouts,
                         FaultCounter("tones_muted", channel.tones_muted))

    def drop_speaker(self, position: Position, start: float,
                     end: float) -> None:
        """Mute every emission from ``position`` overlapping
        ``[start, end)``."""
        self.channel.mute(position, start, end)
        # Count the outage when it activates on the sim clock.  Its
        # edges change no render, so they need no event of their own.
        if start <= self.sim.now:
            self._m_dropouts.inc()
        else:
            self.sim.schedule_at(start, self._m_dropouts.inc)

    def random_dropouts(self, position: Position, start: float, end: float,
                        rate: float, mean_outage: float = 0.6,
                        label: str = "dropouts") -> list[tuple[float, float]]:
        """Generate an alternating up/down schedule over ``[start, end)``
        whose expected down-time fraction is ``rate``; returns the
        outage windows it scheduled.  Fully determined by
        ``(seed, label)``."""
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"rate must be in [0, 1), got {rate}")
        windows: list[tuple[float, float]] = []
        if rate == 0.0:
            return windows
        rng = seeded_rng(self.seed, label)
        mean_up = mean_outage * (1.0 - rate) / rate
        at = start + float(rng.exponential(mean_up))
        while at < end:
            down = min(at + float(rng.exponential(mean_outage)), end)
            self.drop_speaker(position, at, down)
            windows.append((at, down))
            at = down + float(rng.exponential(mean_up))
        return windows
