"""Multi-hop sound transmission: the paper's §8 open question.

"We limit our evaluation to close-range applications, as we transmit
sound signals between devices over a single hop. ... A more efficient
multi-hop sound transmission would allow greater flexibility in device
placement.  We leave this as an open question."

:class:`ToneRelay` answers it with the obvious store-and-forward
design: a relay owns a microphone, a speaker and *two* frequency
blocks.  It listens for tones in its **uplink** block (where distant
sources transmit) and re-emits each one, frequency-translated slot-for-
slot, in its **downlink** block.  Translation — rather than simple
repetition — prevents the relay's own emission from re-triggering its
detector (acoustic feedback) and lets a chain of relays ladder a tone
across a room one block at a time, exactly like frequency-division
repeaters in radio systems.
"""

from __future__ import annotations

from ..audio.channel import AcousticChannel
from ..audio.detector import DetectionEvent
from ..audio.devices import Microphone, Speaker
from ..audio.synth import ToneSpec
from ..net.sim import Simulator
from ..net.stats import Counter
from .controller import MDNController
from .frequency_plan import Allocation


class ToneRelay:
    """A frequency-translating acoustic repeater.

    Parameters
    ----------
    sim, channel:
        Shared clock and air.
    microphone, speaker:
        The relay's own ears and voice (place them at the relay's
        position).  The microphone feeds :attr:`ears`, an
        :class:`~repro.core.controller.MDNController` watching the
        uplink block whose onsets are forwarded; it never prunes the
        channel (the relay is a guest in the room, not its controller).
    uplink, downlink:
        Frequency blocks of equal size; a tone heard at
        ``uplink.frequency_for(i)`` is re-emitted at
        ``downlink.frequency_for(i)``.
    listen_interval:
        Capture window length (also the relay's added per-hop latency
        bound, plus the tone duration).
    tone_duration, gain_db:
        The re-emission parameters; ``gain_db`` is added to the
        *received* level so a weak incoming tone leaves strong
        (amplification is the point of a repeater).
    """

    def __init__(
        self,
        sim: Simulator,
        channel: AcousticChannel,
        microphone: Microphone,
        speaker: Speaker,
        uplink: Allocation,
        downlink: Allocation,
        listen_interval: float = 0.1,
        tone_duration: float = 0.08,
        gain_db: float = 30.0,
        min_level_db: float = 25.0,
        refractory: float = 0.25,
        name: str = "relay",
    ) -> None:
        if len(uplink) != len(downlink):
            raise ValueError(
                f"uplink ({len(uplink)}) and downlink ({len(downlink)}) "
                "blocks must be the same size"
            )
        if set(uplink.frequencies) & set(downlink.frequencies):
            raise ValueError("uplink and downlink blocks must be disjoint")
        self.sim = sim
        self.channel = channel
        self.speaker = speaker
        self.uplink = uplink
        self.downlink = downlink
        self.tone_duration = tone_duration
        self.gain_db = gain_db
        self.refractory = refractory
        self.name = name
        self.relayed = Counter(f"{name}.relayed")
        self._last_relay: dict[float, float] = {}
        self.ears = MDNController(
            sim, channel, microphone, listen_interval=listen_interval,
            min_level_db=min_level_db, prune_every=0,
        )
        self.ears.watch(list(uplink.frequencies), on_onset=self._forward)

    def start(self) -> None:
        self.ears.start()

    def stop(self) -> None:
        self.ears.stop()

    def translate(self, uplink_frequency: float) -> float:
        """The downlink frequency an uplink tone maps to."""
        return self.downlink.frequency_for(
            self.uplink.index_of(uplink_frequency)
        )

    def _forward(self, event: DetectionEvent) -> None:
        """Re-emit an uplink onset on the downlink, amplified, unless the
        same slot was relayed within the refractory period."""
        now = self.sim.now
        last = self._last_relay.get(event.frequency)
        if last is not None and now - last < self.refractory:
            return
        self._last_relay[event.frequency] = now
        out_level = min(event.level_db + self.gain_db,
                        self.speaker.max_level_db)
        self.speaker.play(
            self.channel, now,
            ToneSpec(self.translate(event.frequency),
                     self.tone_duration, out_level),
        )
        self.relayed.increment()


def build_relay_chain(
    sim: Simulator,
    channel: AcousticChannel,
    plan,
    positions: list,
    block_size: int,
    name_prefix: str = "relay",
    **relay_kwargs,
) -> list[ToneRelay]:
    """Wire a chain of relays laddering tones block-to-block.

    Allocates ``len(positions) + 1`` consecutive blocks from ``plan``:
    block 0 is the chain's ingress (where sources transmit); relay *i*
    sits at ``positions[i]``, listens on block *i* and re-emits on
    block *i + 1*.  The final block is what the far-end controller
    watches.  Returns the (started) relays.
    """
    blocks = [
        plan.allocate(f"{name_prefix}-block{index}", block_size)
        for index in range(len(positions) + 1)
    ]
    relays = []
    for index, position in enumerate(positions):
        relay = ToneRelay(
            sim, channel,
            Microphone(position, seed=100 + index),
            Speaker(position),
            uplink=blocks[index],
            downlink=blocks[index + 1],
            name=f"{name_prefix}{index}",
            **relay_kwargs,
        )
        relay.start()
        relays.append(relay)
    return relays
