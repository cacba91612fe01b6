"""Servers: chassis of fans with failure injection.

Section 7 monitors "the sound of server fans" and detects "when one has
failed".  A :class:`Server` groups several :class:`~repro.fans.fan.FanModel`
rotors (real 1U boxes carry 4–8), renders their combined emission, and
supports injecting a failure of one fan — or the whole box losing power
(the UPS anecdote) — at a chosen time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..audio.channel import (
    PRUNE_PROPAGATION_ALLOWANCE,
    AcousticChannel,
    Position,
)
from ..audio.signal import DEFAULT_SAMPLE_RATE, AudioSignal
from .fan import FanModel


def default_fan_bank(
    num_fans: int = 4, base_rpm: float = 9_000.0, seed: int = 0
) -> list[FanModel]:
    """A realistic chassis fan set: same model, slightly different
    speeds (fans never spin in lockstep), distinct noise seeds."""
    if num_fans < 1:
        raise ValueError("num_fans must be >= 1")
    fans = []
    for index in range(num_fans):
        fans.append(
            FanModel(
                rpm=base_rpm * (1.0 + 0.015 * index),
                seed=seed * 1_000 + index,
            )
        )
    return fans


@dataclass
class Server:
    """A server chassis with its fan bank.

    Attributes
    ----------
    name:
        Identifier used in alerts.
    fans:
        The rotors in the chassis.
    position:
        Where the chassis sits in the room.
    """

    name: str
    fans: list[FanModel] = field(default_factory=default_fan_bank)
    position: Position = field(default_factory=Position)
    #: Per-fan power-loss time (index → seconds); None = healthy.
    _fan_stop_times: dict[int, float] = field(default_factory=dict)
    _attached: bool = field(default=False, repr=False)

    def fail_fan(self, fan_index: int, at_time: float) -> None:
        """Schedule one fan to lose power at ``at_time`` seconds.

        Must be called *before* :meth:`attach_to_channel` — the channel
        holds a pre-rendered emission, so later failures cannot affect
        an already-placed server.
        """
        if self._attached:
            raise RuntimeError(
                f"{self.name}: already attached to a channel; inject "
                "failures before attach_to_channel()"
            )
        if not 0 <= fan_index < len(self.fans):
            raise IndexError(f"no fan {fan_index} in {self.name}")
        if at_time < 0:
            raise ValueError("at_time must be non-negative")
        self._fan_stop_times[fan_index] = at_time

    def fail_all(self, at_time: float) -> None:
        """The whole box loses power (emergency shutdown scenario)."""
        for index in range(len(self.fans)):
            self.fail_fan(index, at_time)

    def is_failed(self, fan_index: int) -> bool:
        return fan_index in self._fan_stop_times

    def render(
        self,
        duration: float,
        sample_rate: int = DEFAULT_SAMPLE_RATE,
        lead_in: float = 0.0,
    ) -> AudioSignal:
        """The chassis' combined emission over ``[-lead_in, duration]``,
        honouring any injected failures (failure times stay anchored to
        t = 0; the lead-in prepends steady hum without disturbing the
        t >= 0 samples)."""
        parts = [
            fan.render(
                duration,
                sample_rate,
                stop_time=self._fan_stop_times.get(index),
                lead_in=lead_in,
            )
            for index, fan in enumerate(self.fans)
        ]
        return AudioSignal.from_components(parts, sample_rate)

    def attach_to_channel(
        self,
        channel: AcousticChannel,
        duration: float,
        lead_in: float | None = None,
    ) -> None:
        """Pre-render this server's emission and place it in the room.

        The rendered signal does not loop (a failed fan must *stay*
        silent).  Fans were already spinning before the capture window
        opens, so the emission pre-rolls by ``lead_in`` seconds
        (anchored at ``-lead_in``): by t = 0 the hum has crossed any
        room-scale listener distance and arrives steady, with no
        speed-of-sound onset transient.  The default lead-in is the
        channel's room-scale propagation allowance (zero when delay
        modelling is off).
        """
        if lead_in is None:
            lead_in = (
                PRUNE_PROPAGATION_ALLOWANCE
                if channel.enable_propagation_delay
                else 0.0
            )
        self._attached = True
        channel.add_noise(
            self.render(duration, channel.sample_rate, lead_in=lead_in),
            position=self.position,
            loop=False,
            start=-lead_in,
        )
