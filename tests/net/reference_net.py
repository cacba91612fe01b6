"""The per-packet data path one method per step: the specification that
the flattened :class:`repro.net.LinkDirection`, :class:`repro.net.Switch`
and :meth:`repro.net.Host.send_packet` are pinned against.

Each hop goes through :meth:`Simulator.schedule` (``delay`` relative to
``now``), a link starts every transmission in its own
``_start_transmission``, the switch dispatches in ``_execute`` with the
action types tested in declaration order, and ``_forward`` hands the
packet to :meth:`Node.transmit`.  These classes count what that path
counted and nothing more: a link failure drains the queue through
``dequeue`` (so flushed packets read as dequeued) and drops the packet
being serialized, and there is no ``lost``, ``packets_refused`` or
``packets_misdelivered`` bookkeeping.

``ReferenceLink`` wires two :class:`ReferenceLinkDirection` s the way
:class:`repro.net.Link` wires two real ones, so a network built from
``ReferenceHost``/``ReferenceSwitch``/``ReferenceLink`` runs on a plain
:class:`repro.net.Simulator` next to one built from the real classes.
"""

from __future__ import annotations

from repro.net import Host, Link, LinkDirection, Switch
from repro.net.flowtable import ActionType
from repro.net.queueing import DEFAULT_CAPACITY


class ReferenceLinkDirection(LinkDirection):
    def send(self, packet):
        if not self.up:
            return False
        if self.busy:
            return self.queue.enqueue(packet)
        self._start_transmission(packet)
        return True

    def fail(self):
        self.up = False
        while self.queue.dequeue() is not None:
            pass
        if self.busy:
            self.sim.cancel(self._serializing)
            self.busy = False

    def _start_transmission(self, packet):
        self.busy = True
        serialization = packet.size_bits / self.bandwidth_bps
        self._serializing = self.sim.schedule(
            serialization, self._finish_transmission, packet)

    def _finish_transmission(self, packet):
        if self.up:
            self.bytes_sent.add(packet.size_bytes)
            self.packets_sent.increment()
            self.sim.schedule(self.delay, self._deliver, packet)
        next_packet = self.queue.dequeue()
        if next_packet is not None and self.up:
            self._start_transmission(next_packet)
        else:
            self.busy = False

    def _deliver(self, packet):
        if not self.up:
            return
        if self.fault_model is not None:
            packet = self.fault_model.on_deliver(packet)
            if packet is None:
                return
        packet.hops += 1
        self.dst_node.receive(packet, self.dst_port)


class ReferenceLink(Link):
    def __init__(self, sim, node_a, port_a, node_b, port_b,
                 bandwidth_bps=10_000_000.0, delay=0.000_1,
                 queue_capacity=DEFAULT_CAPACITY, bandwidth_ba_bps=None):
        self.a_to_b = ReferenceLinkDirection(
            sim, node_b, port_b, bandwidth_bps, delay, queue_capacity,
            name=f"{node_a.name}:{port_a}->{node_b.name}:{port_b}",
        )
        self.b_to_a = ReferenceLinkDirection(
            sim, node_a, port_a, bandwidth_ba_bps or bandwidth_bps, delay,
            queue_capacity,
            name=f"{node_b.name}:{port_b}->{node_a.name}:{port_a}",
        )
        node_a.attach(port_a, self.a_to_b)
        node_b.attach(port_b, self.b_to_a)
        self.node_a, self.port_a = node_a, port_a
        self.node_b, self.port_b = node_b, port_b


class ReferenceSwitch(Switch):
    def receive(self, packet, in_port):
        self.packets_received.increment()
        self.bytes_received.add(packet.size_bytes)
        for hook in self._receive_hooks:
            hook(packet, in_port)

        entry = self.flow_table.lookup(packet, in_port)
        if entry is not None:
            entry.account(packet)
            action = entry.action
        else:
            action = self.default_action

        self._execute(action, entry, packet, in_port)

    def _execute(self, action, entry, packet, in_port):
        if action.type is ActionType.DROP:
            self.packets_dropped.increment()
        elif action.type is ActionType.FORWARD:
            self._forward(packet, in_port, action.out_ports[0])
        elif action.type is ActionType.FLOOD:
            for port in self.ports:
                if port != in_port:
                    self._forward(packet, in_port, port)
        elif action.type is ActionType.SPLIT:
            if entry is None:
                raise ValueError("SPLIT action requires a flow entry")
            self._forward(packet, in_port, entry.next_split_port())
        elif action.type is ActionType.CONTROLLER:
            if self.control_channel is not None:
                self.control_channel.send_packet_in(self, packet, in_port)
            else:
                self.packets_dropped.increment()
        else:
            raise ValueError(f"unhandled action type {action.type}")

    def _forward(self, packet, in_port, out_port):
        if out_port not in self.ports:
            self.packets_dropped.increment()
            return
        for hook in self._forward_hooks:
            hook(packet, in_port, out_port)
        if self.transmit(packet, out_port):
            self.packets_forwarded.increment()
        else:
            self.packets_dropped.increment()


class ReferenceHost(Host):
    def receive(self, packet, in_port):
        if packet.flow.dst_ip != self.ip:
            return
        self.bytes_received.add(packet.size_bytes)
        self.packets_received.increment()
        port = packet.flow.dst_port
        self.port_bytes[port] = self.port_bytes.get(port, 0) + packet.size_bytes
        for handler in self._handlers:
            handler(packet)

    def send_packet(self, packet):
        self.bytes_sent.add(packet.size_bytes)
        self.packets_sent.increment()
        return self.transmit(packet, self.NIC_PORT)
