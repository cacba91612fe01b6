"""The MusicAgent: the Raspberry Pi bolted to a switch.

In the testbed (Figure 1) each Zodiac FX switch sends Music Protocol
messages to an attached Pi, which drives a speaker.  The agent here is
that Pi: it consumes :class:`~repro.core.protocol.MusicProtocolMessage`s
and schedules the corresponding tones on the acoustic channel at the
current simulation time.

Hardware constraints are enforced at this layer:

* tones shorter than the speaker's minimum (~30 ms on the paper's
  testbed) are rejected;
* the speaker is half-duplex — while a tone is sounding, further
  requests are either dropped or coalesced, governed by
  ``busy_policy`` (real single-driver speakers cannot mix arbitrary
  simultaneous tones; the paper's per-packet telemetry sounds are
  naturally rate-limited the same way).

A switch whose chirps are known up front hands the agent a whole
schedule instead of one message per chirp: :func:`play_schedules`
validates each agent's tone once and emits every agent's rows as one
column batch on the channel, in the order the per-chirp events would
have fired.  A schedule whose rows the busy rule would drop or queue is
refused rather than played differently.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..audio.channel import AcousticChannel
from ..audio.devices import Speaker
from ..net.sim import Simulator
from ..net.stats import Counter
from .protocol import MusicProtocolMessage


class MusicAgent:
    """Plays MP messages on a speaker, at simulation time.

    Parameters
    ----------
    sim:
        The shared clock.
    channel:
        The air.
    speaker:
        The attached driver (position + capability envelope).
    name:
        Agent label (usually the switch or server name).
    busy_policy:
        ``"drop"`` — requests arriving while the speaker is busy are
        discarded (counted in ``dropped``); ``"queue"`` — they are
        played back-to-back after the current tone.
    """

    def __init__(
        self,
        sim: Simulator,
        channel: AcousticChannel,
        speaker: Speaker,
        name: str = "agent",
        busy_policy: str = "drop",
    ) -> None:
        if busy_policy not in ("drop", "queue"):
            raise ValueError(f"unknown busy_policy {busy_policy!r}")
        self.sim = sim
        self.channel = channel
        self.speaker = speaker
        self.name = name
        self.busy_policy = busy_policy
        self.played = Counter(f"{name}.tones_played")
        self.dropped = Counter(f"{name}.tones_dropped")
        #: Simulation time until which the speaker is occupied (or
        #: reserved by a schedule).
        self._busy_until = 0.0
        #: End of the last tone committed by a schedule: until then the
        #: speaker is reserved for it.
        self._reserved_until = 0.0

    @property
    def is_busy(self) -> bool:
        return self.sim.now < self._busy_until

    def handle_message(self, message: MusicProtocolMessage) -> bool:
        """Play (or queue/drop) the tone an MP message requests.

        Returns True if the tone was scheduled.  Raises
        :class:`RuntimeError` while a schedule reserves the speaker:
        whether the tone would be played, dropped or queued depends on
        rows the channel already holds.
        """
        spec = message.to_tone_spec()
        self.speaker.validate(spec)
        start = self.sim.now
        if start < self._reserved_until:
            raise RuntimeError(
                f"{self.name}: speaker reserved by a schedule until "
                f"{self._reserved_until}"
            )
        if self.is_busy:
            if self.busy_policy == "drop":
                self.dropped.increment()
                return False
            start = self._busy_until
        self.speaker.play(self.channel, start, spec)
        self._busy_until = start + spec.duration
        self.played.increment()
        return True

    def handle_wire(self, wire: bytes) -> bool:
        """Unmarshal a raw MP message and play it (the LwIP path)."""
        return self.handle_message(MusicProtocolMessage.unmarshal(wire))

    def play(
        self, frequency: float, duration: float = 0.05, intensity_db: float = 70.0
    ) -> bool:
        """Convenience: build and handle an MP message in one call."""
        return self.handle_message(
            MusicProtocolMessage(frequency, duration, intensity_db)
        )

    def play_schedule(
        self,
        starts: Sequence[float],
        frequency: float,
        duration: float = 0.05,
        intensity_db: float = 70.0,
    ) -> None:
        """Play one tone at each of ``starts`` (ascending sim times):
        the batch form of calling :meth:`play` at each start."""
        play_schedules([
            (self, starts, MusicProtocolMessage(frequency, duration,
                                                intensity_db)),
        ])

    def _checked_schedule(self, starts, spec) -> np.ndarray:
        """``starts`` as an array, once ``spec`` passes the speaker and
        every row passes the busy rule."""
        self.speaker.validate(spec)
        starts = np.array(starts, dtype=float).reshape(-1)
        # The per-tone path would find the speaker busy at a row that
        # starts before the previous tone ends, and drop or queue it.
        if len(starts) and (
                starts[0] < max(self.sim.now, self._busy_until)
                or (starts[1:] < starts[:-1] + spec.duration).any()):
            raise ValueError(
                f"{self.name}: schedule rows must start at or after now, "
                f"in order, each once the speaker is free "
                f"({spec.duration} s tones)"
            )
        return starts


def play_schedules(
    schedules: Iterable[tuple[MusicAgent, Sequence[float], MusicProtocolMessage]],
) -> None:
    """Play several agents' tone schedules as one channel batch.

    Each ``(agent, starts, message)`` triple asks its own ``agent`` to
    play ``message``'s tone at each of ``starts`` (ascending sim times);
    all agents share one channel.  The rows are sequenced as the
    per-tone events ``sim.schedule_at(start, agent.handle_message,
    message)``, scheduled triple by triple, would have fired: by start
    time, then by the triple's position in ``schedules``.  That order is
    the order each sample's contributions are summed in, so the renders
    equal the per-tone path's bit for bit.  Nothing is played unless
    every row passes.
    """
    rows = []
    for agent, starts, message in schedules:
        spec = message.to_tone_spec()
        starts = agent._checked_schedule(starts, spec)
        if len(starts):
            rows.append((agent, spec, starts))
    if not rows:
        return
    agents, specs, columns = zip(*rows)
    if len(set(map(id, agents))) < len(agents):
        raise ValueError("each agent takes one schedule per batch")
    channel = agents[0].channel
    if any(agent.channel is not channel for agent in agents):
        raise ValueError("scheduled agents must share one channel")
    starts = np.concatenate(columns)
    voice = np.repeat(np.arange(len(columns)), list(map(len, columns)))
    order = np.lexsort((voice, starts))
    channel.play_tones(
        starts[order],
        [(spec, agent.speaker.position) for agent, spec in zip(agents, specs)],
        voice[order],
    )
    for agent, spec, column in rows:
        agent._busy_until = agent._reserved_until = (
            float(column[-1]) + spec.duration)
        agent.played.add(len(column))
