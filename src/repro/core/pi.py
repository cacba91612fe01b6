"""The Raspberry Pi as a network host: Figure 1, faithfully.

"We modified the firmware of the Zodiac FX switches, so that when we
want the switch to play a sound, a Music Protocol (MP) message is sent
to the Pi.  ...  To support MP message marshaling on the Zodiac FX
switches, we had to disable OpenFlow on the switch Ethernet port
connected to the Pi."

Most of this reproduction lets applications drive the
:class:`~repro.core.agent.MusicAgent` directly — functionally
equivalent and simpler to wire.  This module provides the *faithful*
path for when fidelity matters: the MP message travels as real bytes in
a real packet over a real (simulated) Ethernet link from the switch to
a Pi host, which unmarshals the wire format and drives the speaker.
The MP bytes therefore experience serialization delay, can queue behind
other traffic on the Pi link, and are subject to the same failure modes
as any packet — exactly like the testbed.
"""

from __future__ import annotations

from ..audio.devices import DeviceCapabilityError
from ..net.host import Host
from ..net.link import Link
from ..net.packet import FlowKey, Packet, Protocol
from ..net.sim import Simulator
from ..net.stats import Counter
from ..net.switch import Switch
from .agent import MusicAgent
from .protocol import MusicProtocolError, MusicProtocolMessage

#: UDP port the Pi listens on for MP messages.
MP_PORT = 5005

#: UDP port ARQ acknowledgements travel back on (Pi → switch).
MP_ACK_PORT = 5006

#: Destination address on ACK frames.  The ACK is consumed at the
#: switch by the ARQ sender's receive hook (the Pi port is outside the
#: flow table), so it needs no routable address.
MP_ACK_ADDRESS = "0.0.0.0"

#: ARQ framing on the Pi link: a DATA frame is ``b"MD" + seq(2, BE) +``
#: the 12-byte MP wire message; an ACK frame is ``b"MA" + seq(2, BE)``.
#: Bare 12-byte MP frames (the legacy fire-and-forget path) are still
#: accepted and never acknowledged.
ARQ_DATA_MAGIC = b"MD"
ARQ_ACK_MAGIC = b"MA"
ARQ_DATA_SIZE = 4 + 12
ARQ_ACK_SIZE = 4

#: The Pi link's rate: the Zodiac FX management port is 100 Mb/s but
#: the paper's LwIP raw-API path is nowhere near line rate; 10 Mb/s is
#: generous and keeps MP delivery sub-millisecond either way.
PI_LINK_BANDWIDTH = 10_000_000.0


class RaspberryPi(Host):
    """A Pi host that unmarshals MP packets and plays their tones.

    Besides the legacy 12-byte fire-and-forget path, the Pi is the
    responder half of the MP ARQ mode: a framed DATA packet that
    unmarshals cleanly is acknowledged back to the switch with its
    sequence number, so the sender can stop retransmitting.
    """

    def __init__(self, sim: Simulator, name: str, ip: str,
                 agent: MusicAgent) -> None:
        super().__init__(sim, name, ip)
        self.agent = agent
        self.mp_played = Counter(f"{name}.mp_played")
        self.mp_rejected = Counter(f"{name}.mp_rejected")
        self.acks_sent = Counter(f"{name}.acks_sent")
        #: Distinct ARQ sequence numbers played at least once (the
        #: deduplicated delivery set retransmissions are judged by).
        self.mp_seen_seqs: set[int] = set()
        self.on_delivery(self._on_packet)

    def _on_packet(self, packet: Packet) -> None:
        if packet.flow.dst_port != MP_PORT:
            return
        wire = packet.payload
        sequence: int | None = None
        if len(wire) >= 4 and wire[:2] == ARQ_DATA_MAGIC:
            sequence = int.from_bytes(wire[2:4], "big")
            wire = wire[4:]
        try:
            message = MusicProtocolMessage.unmarshal(wire)
        except MusicProtocolError:
            # Truncated or bit-flipped on the link; an ARQ frame earns
            # no ACK, so the sender retransmits.
            self.mp_rejected.increment()
            return
        try:
            self.agent.handle_message(message)
        except DeviceCapabilityError:
            # The switch asked for a tone the speaker cannot make.
            self.mp_rejected.increment()
            return
        self.mp_played.increment()
        if sequence is not None:
            self.mp_seen_seqs.add(sequence)
            self._send_ack(sequence)

    def _send_ack(self, sequence: int) -> None:
        flow = FlowKey(self.ip, MP_ACK_ADDRESS, MP_ACK_PORT, MP_ACK_PORT,
                       Protocol.UDP)
        ack = Packet(
            flow,
            size_bytes=ARQ_ACK_SIZE + 42,
            created_at=self.sim.now,
            is_management=True,
            payload=ARQ_ACK_MAGIC + sequence.to_bytes(2, "big"),
        )
        self.acks_sent.increment()
        self.send_packet(ack)


class PiBridge:
    """Wires a Pi to a dedicated switch port and sends MP messages.

    The bridge installs no flow entry for the Pi port ("we had to
    disable OpenFlow on the switch Ethernet port connected to the Pi"):
    MP packets are transmitted straight out of the dedicated port,
    bypassing the flow table, and nothing is ever forwarded *to* the
    data plane from it.

    Parameters
    ----------
    sim:
        The shared clock.
    switch:
        The switch gaining sound capability.
    agent:
        The Pi's speaker driver.
    pi_port:
        The switch-local port number to dedicate (must be unused).
    """

    def __init__(
        self,
        sim: Simulator,
        switch: Switch,
        agent: MusicAgent,
        pi_port: int = 99,
        bandwidth_bps: float = PI_LINK_BANDWIDTH,
    ) -> None:
        self.sim = sim
        self.switch = switch
        self.pi_port = pi_port
        pi_ip = f"192.168.99.{(hash(switch.name) % 200) + 1}"
        self.pi = RaspberryPi(sim, f"{switch.name}-pi", pi_ip, agent)
        self.link = Link(sim, switch, pi_port, self.pi, Host.NIC_PORT,
                         bandwidth_bps=bandwidth_bps, delay=0.000_05)
        self.mp_sent = Counter(f"{switch.name}.mp_sent")
        self._flow = FlowKey(
            "0.0.0.0", pi_ip, MP_PORT, MP_PORT, Protocol.UDP
        )

    def send_mp(self, message: MusicProtocolMessage) -> bool:
        """Marshal and transmit one MP message out the Pi port."""
        wire = message.marshal()
        packet = Packet(
            self._flow,
            size_bytes=len(wire) + 42,  # + Ethernet/IP/UDP headers
            created_at=self.sim.now,
            is_management=True,
            payload=wire,
        )
        self.mp_sent.increment()
        return self.switch.transmit(packet, self.pi_port)

    def play(self, frequency: float, duration: float = 0.05,
             intensity_db: float = 70.0) -> bool:
        """Convenience mirroring :meth:`MusicAgent.play`, over the wire."""
        return self.send_mp(
            MusicProtocolMessage(frequency, duration, intensity_db)
        )
