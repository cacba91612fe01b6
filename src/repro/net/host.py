"""End hosts: traffic sources and sinks with byte accounting.

Figure 3a plots "bytes sent/recvd" at the two hosts of the
port-knocking experiment; the host here keeps exactly those counters,
plus per-destination-port delivery so applications (and tests) can ask
"did traffic on port X get through?".
"""

from __future__ import annotations

import itertools
from typing import Callable

from .link import Node
from .packet import FlowKey, Packet, Protocol
from .sim import Simulator
from .stats import Counter, TimeSeries

#: Handler signature: (packet) — called on packet delivery to the host.
DeliveryHandler = Callable[[Packet], None]

_ephemeral_ports = itertools.count(40_000)


class Host(Node):
    """A single-homed end host.

    Parameters
    ----------
    sim:
        Shared simulator.
    name:
        Host name.
    ip:
        The host's address; switches route on it.
    """

    #: The single NIC's local port number.
    NIC_PORT = 0

    def __init__(self, sim: Simulator, name: str, ip: str) -> None:
        super().__init__(sim, name)
        self.ip = ip
        self.bytes_sent = Counter(f"{name}.bytes_sent")
        self.bytes_received = Counter(f"{name}.bytes_received")
        self.packets_sent = Counter(f"{name}.packets_sent")
        self.packets_received = Counter(f"{name}.packets_received")
        #: Packets the NIC refused (queue full or link down).
        self.packets_refused = Counter(f"{name}.packets_refused")
        #: Packets that reached this host addressed to another one.
        self.packets_misdelivered = Counter(f"{name}.packets_misdelivered")
        #: Bytes received per destination port (who got through?).
        self.port_bytes: dict[int, int] = {}
        self._handlers: list[DeliveryHandler] = []

    def on_delivery(self, handler: DeliveryHandler) -> None:
        """Call ``handler(packet)`` whenever a packet is delivered here."""
        self._handlers.append(handler)

    def receive(self, packet: Packet, in_port: int) -> None:
        flow = packet.flow
        if flow.dst_ip != self.ip:
            # Mis-delivered (e.g. flooded) traffic is counted apart
            # from received payload.
            self.packets_misdelivered.total += 1
            return
        size = packet.size_bytes
        self.bytes_received.total += size
        self.packets_received.total += 1
        port = flow.dst_port
        self.port_bytes[port] = self.port_bytes.get(port, 0) + size
        for handler in self._handlers:
            handler(packet)

    def send_packet(self, packet: Packet) -> bool:
        """Transmit a pre-built packet out of the NIC; returns False
        (and counts it in ``packets_refused``) if the NIC refused it."""
        self.bytes_sent.total += packet.size_bytes
        self.packets_sent.total += 1
        if self.transmit(packet, self.NIC_PORT):
            return True
        self.packets_refused.total += 1
        return False

    def send_to(
        self,
        dst_ip: str,
        dst_port: int,
        size_bytes: int = 1_000,
        src_port: int | None = None,
        protocol: Protocol = Protocol.TCP,
        ecn_capable: bool = False,
    ) -> Packet:
        """Build and transmit one packet; returns the packet."""
        flow = FlowKey(
            self.ip,
            dst_ip,
            next(_ephemeral_ports) % 65_536 if src_port is None else src_port,
            dst_port,
            protocol,
        )
        packet = Packet(
            flow,
            size_bytes=size_bytes,
            created_at=self.sim.now,
            ecn_capable=ecn_capable,
        )
        self.send_packet(packet)
        return packet


class ByteCounterSampler:
    """Periodically samples a host's cumulative byte counters.

    Produces the Figure 3a series: cumulative bytes sent by the sender
    and received by the receiver over time.
    """

    def __init__(self, sim: Simulator, host: Host, interval: float = 0.5) -> None:
        self.host = host
        self.sent = TimeSeries(f"{host.name}.bytes_sent")
        self.received = TimeSeries(f"{host.name}.bytes_received")
        self._timer = sim.every(interval, self._sample, start=sim.now)

    def _sample(self) -> None:
        self.sent.record(self.host.sim.now, self.host.bytes_sent.total)
        self.received.record(self.host.sim.now, self.host.bytes_received.total)

    def stop(self) -> None:
        self._timer.stop()
