"""Point-to-point links and the node attachment model.

A :class:`Link` joins two nodes (switch↔switch or switch↔host) with a
full-duplex pipe: each direction has its own bandwidth, propagation
delay and egress queue.  The egress queue lives on the link direction,
mirroring a Linux qdisc on the outgoing interface — which is exactly
what the paper samples with ``tc`` every 300 ms (§6).
"""

from __future__ import annotations

from .packet import Packet
from .queueing import DEFAULT_CAPACITY, PacketQueue
from .sim import Simulator
from .stats import Counter


class Node:
    """Base class for anything a link can attach to.

    Subclasses (:class:`~repro.net.switch.Switch`,
    :class:`~repro.net.host.Host`) implement :meth:`receive`.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        #: Egress pipe per local port number.
        self.ports: dict[int, "LinkDirection"] = {}

    def attach(self, port: int, direction: "LinkDirection") -> None:
        """Bind an egress pipe to a local port number (used by Link)."""
        if port in self.ports:
            raise ValueError(f"{self.name}: port {port} already attached")
        self.ports[port] = direction

    def transmit(self, packet: Packet, out_port: int) -> bool:
        """Hand a packet to the egress pipe on ``out_port``.

        Returns False if the egress queue dropped it.
        """
        direction = self.ports.get(out_port)
        if direction is None:
            raise ValueError(f"{self.name}: no link on port {out_port}")
        return direction.send(packet)

    def receive(self, packet: Packet, in_port: int) -> None:
        """Handle a packet arriving on ``in_port``; subclasses override."""
        raise NotImplementedError

    def queue_length(self, port: int) -> int:
        """Instantaneous egress queue occupancy on ``port`` (the tc poll)."""
        direction = self.ports.get(port)
        if direction is None:
            raise ValueError(f"{self.name}: no link on port {port}")
        return len(direction.queue)

    def egress_queue(self, port: int) -> PacketQueue:
        """The egress queue object on ``port``."""
        direction = self.ports.get(port)
        if direction is None:
            raise ValueError(f"{self.name}: no link on port {port}")
        return direction.queue


class LinkDirection:
    """One direction of a link: queue → serializer → propagation.

    A packet handed to :meth:`send` is transmitted immediately if the
    line is idle, else queued (drop-tail).  Serialization takes
    ``size_bits / bandwidth_bps`` seconds; delivery to the far node
    happens one propagation ``delay`` later.  An accepted packet that
    never reaches the far node is counted once: in the queue's
    ``flushed`` if queued when the link fails, else in :attr:`lost`
    (serializing or propagating when it fails).
    """

    def __init__(
        self,
        sim: Simulator,
        dst_node: Node,
        dst_port: int,
        bandwidth_bps: float,
        delay: float,
        queue_capacity: int = DEFAULT_CAPACITY,
        name: str = "",
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.sim = sim
        self.dst_node = dst_node
        self.dst_port = dst_port
        self.bandwidth_bps = bandwidth_bps
        self.delay = delay
        self.name = name
        self.queue = PacketQueue(queue_capacity, name=name)
        self.busy = False
        #: While busy: the event that ends the current serialization.
        self._serializing: list | None = None
        self.up = True
        #: Optional delivery fault model (repro.faults): consulted per
        #: delivered packet; may drop it.  ``None`` keeps delivery on
        #: the original path.
        self.fault_model = None
        self.bytes_sent = Counter(f"{name}.bytes_sent")
        self.packets_sent = Counter(f"{name}.packets_sent")
        self.lost = Counter(f"{name}.lost")

    def send(self, packet: Packet) -> bool:
        """Queue (or immediately transmit) a packet.

        Returns False when the packet was refused (queue full or link
        down); the sender counts the refusal.
        """
        if not self.up:
            return False
        if self.busy:
            return self.queue.enqueue(packet)
        self.busy = True
        sim = self.sim
        self._serializing = sim.schedule_at(
            sim.now + packet.size_bytes * 8 / self.bandwidth_bps,
            self._finish_transmission, packet)
        return True

    def fail(self) -> None:
        """Cut the link (data-plane failure scenario, §1 motivation).
        Queued packets are lost (the queue counts them as flushed), so
        the queue stays empty while the link is down, and the packet
        being serialized is lost: the line is idle once restored."""
        self.up = False
        self.queue.flush()
        if self.busy:
            self.sim.cancel(self._serializing)
            self.busy = False
            self.lost.total += 1

    def restore(self) -> None:
        self.up = True

    def _finish_transmission(self, packet: Packet) -> None:
        # fail() cancels this event, so the link is up here.
        sim = self.sim
        self.bytes_sent.total += packet.size_bytes
        self.packets_sent.total += 1
        sim.schedule_at(sim.now + self.delay, self._deliver, packet)
        packet = self.queue.dequeue()
        if packet is None:
            self.busy = False
        else:
            self._serializing = sim.schedule_at(
                sim.now + packet.size_bytes * 8 / self.bandwidth_bps,
                self._finish_transmission, packet)

    def _deliver(self, packet: Packet) -> None:
        if not self.up:
            self.lost.total += 1
            return
        if self.fault_model is not None:
            packet = self.fault_model.on_deliver(packet)
            if packet is None:
                self.lost.total += 1
                return
        packet.hops += 1
        self.dst_node.receive(packet, self.dst_port)


class Link:
    """A full-duplex link between two node ports.

    Parameters
    ----------
    sim:
        The shared simulator.
    node_a, port_a, node_b, port_b:
        The two attachment points.
    bandwidth_bps:
        Line rate in bits/second for the a→b direction (and b→a unless
        ``bandwidth_ba_bps`` overrides it; asymmetric links let
        topologies place the bottleneck at a switch egress).
    delay:
        One-way propagation delay in seconds.
    queue_capacity:
        Egress queue size, packets, each direction.
    """

    def __init__(
        self,
        sim: Simulator,
        node_a: Node,
        port_a: int,
        node_b: Node,
        port_b: int,
        bandwidth_bps: float = 10_000_000.0,
        delay: float = 0.000_1,
        queue_capacity: int = DEFAULT_CAPACITY,
        bandwidth_ba_bps: float | None = None,
    ) -> None:
        self.a_to_b = LinkDirection(
            sim, node_b, port_b, bandwidth_bps, delay, queue_capacity,
            name=f"{node_a.name}:{port_a}->{node_b.name}:{port_b}",
        )
        self.b_to_a = LinkDirection(
            sim, node_a, port_a, bandwidth_ba_bps or bandwidth_bps, delay,
            queue_capacity,
            name=f"{node_b.name}:{port_b}->{node_a.name}:{port_a}",
        )
        node_a.attach(port_a, self.a_to_b)
        node_b.attach(port_b, self.b_to_a)
        self.node_a, self.port_a = node_a, port_a
        self.node_b, self.port_b = node_b, port_b

    def fail(self) -> None:
        """Cut both directions."""
        self.a_to_b.fail()
        self.b_to_a.fail()

    def restore(self) -> None:
        self.a_to_b.restore()
        self.b_to_a.restore()
