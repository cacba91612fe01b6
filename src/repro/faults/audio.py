"""Acoustic-path fault injector: speaker dropout.

:class:`AcousticFaults` installs as a channel fault model
(:meth:`~repro.audio.channel.AcousticChannel.set_fault_model`) and
mutes speakers: tones emitted during an outage never reach any
listener.

Outage windows are half-open intervals ``[start, end)`` on the shared
simulation clock, with **emission-overlap** semantics: a tone whose
emission interval overlaps an outage is fully muted (a driver cutting
out mid-tone corrupts the whole gated emission), which keeps the fast
and reference render paths trivially equivalent.  Whether a tone is
muted therefore depends only on the dropout list, never on the clock,
so only :meth:`AcousticFaults.drop_speaker` changes what a window
sounds like; it calls the channel's ``mark_changed``.
"""

from __future__ import annotations

from collections.abc import KeysView

from ..audio.channel import AcousticChannel, Position, ScheduledTone
from ..net.sim import Simulator
from .harness import FaultCounter, seeded_rng


class AcousticFaults:
    """Channel-side fault model: speaker dropouts.

    Installs itself via ``channel.set_fault_model(self)``; the channel
    asks :meth:`mutes` about every rendered tone from a faulted
    emitter, with the same result as the scalar reference loop, which
    asks about every tone.
    """

    def __init__(self, sim: Simulator, channel: AcousticChannel,
                 seed: int = 0) -> None:
        self.sim = sim
        self.channel = channel
        self.seed = seed
        #: position -> [(start, end), ...] outage windows.
        self._dropouts: dict[Position, list[tuple[float, float]]] = {}
        self._m_dropouts = FaultCounter("speaker_dropouts")
        self._m_muted = FaultCounter("tones_muted")
        self.counters = (self._m_dropouts, self._m_muted)
        channel.set_fault_model(self)

    # ------------------------------------------------------------------
    # Scheduling API (what experiments call)
    # ------------------------------------------------------------------

    def drop_speaker(self, position: Position, start: float,
                     end: float) -> None:
        """Mute every emission from ``position`` overlapping
        ``[start, end)``."""
        if end <= start:
            raise ValueError(f"dropout window [{start}, {end}) is empty")
        self._dropouts.setdefault(position, []).append((start, end))
        self.channel.mark_changed()
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

    # ------------------------------------------------------------------
    # Channel fault-model protocol
    # ------------------------------------------------------------------

    def faulted_positions(self) -> KeysView[Position]:
        """Emitters with a dropout scheduled.  The channel asks
        :meth:`mutes` only about their tones, so an idle injector costs
        the render nothing."""
        return self._dropouts.keys()

    def mutes(self, tone: ScheduledTone) -> bool:
        """Whether a dropout of the tone's emitter overlaps its
        emission."""
        for start, end in self._dropouts.get(tone.position, ()):
            if tone.start_time < end and tone.end_time > start:
                self._m_muted.inc()
                return True
        return False
