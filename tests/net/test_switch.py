"""Unit tests for the match-action switch."""

import pytest

from repro.net import (
    Action,
    ControlChannel,
    ControllerBase,
    FlowKey,
    FlowMod,
    FlowModCommand,
    Link,
    Match,
    Packet,
    Simulator,
    Switch,
)
from tests.net.test_link import Sink


def packet(dst_port=80, dst_ip="10.0.0.2"):
    return Packet(FlowKey("10.0.0.1", dst_ip, 1234, dst_port))


@pytest.fixture
def fabric():
    """One switch with three sinks on ports 1..3."""
    sim = Simulator()
    switch = Switch(sim, "s1")
    sinks = {}
    for port in (1, 2, 3):
        sink = Sink(sim, f"sink{port}")
        Link(sim, switch, port, sink, 1, bandwidth_bps=10_000_000, delay=0.0001)
        sinks[port] = sink
    return sim, switch, sinks


class TestForwarding:
    def test_forward_action(self, fabric):
        sim, switch, sinks = fabric
        switch.flow_table.install(Match(dst_port=80), Action.forward(2))
        switch.receive(packet(80), in_port=1)
        sim.run(0.1)
        assert len(sinks[2].arrivals) == 1
        assert sinks[1].arrivals == []

    def test_default_drop(self, fabric):
        sim, switch, sinks = fabric
        switch.receive(packet(), in_port=1)
        sim.run(0.1)
        assert all(s.arrivals == [] for s in sinks.values())
        assert switch.packets_dropped.total == 1

    def test_flood_excludes_ingress(self, fabric):
        sim, switch, sinks = fabric
        switch.flow_table.install(Match(), Action.flood())
        switch.receive(packet(), in_port=2)
        sim.run(0.1)
        assert len(sinks[1].arrivals) == 1
        assert len(sinks[3].arrivals) == 1
        assert sinks[2].arrivals == []

    def test_split_round_robins(self, fabric):
        sim, switch, sinks = fabric
        switch.flow_table.install(Match(), Action.split([2, 3]))
        for _ in range(4):
            switch.receive(packet(), in_port=1)
        sim.run(0.1)
        assert len(sinks[2].arrivals) == 2
        assert len(sinks[3].arrivals) == 2

    def test_forward_to_missing_port_drops(self, fabric):
        sim, switch, _sinks = fabric
        switch.flow_table.install(Match(), Action.forward(9))
        switch.receive(packet(), in_port=1)
        assert switch.packets_dropped.total == 1

    def test_counters(self, fabric):
        sim, switch, _sinks = fabric
        switch.flow_table.install(Match(dst_port=80), Action.forward(2))
        switch.receive(packet(80), in_port=1)
        switch.receive(packet(81), in_port=1)  # dropped
        assert switch.packets_received.total == 2
        assert switch.packets_forwarded.total == 1
        assert switch.packets_dropped.total == 1
        assert switch.bytes_received.total == 2000


class TestHooks:
    def test_receive_hook_sees_dropped_packets(self, fabric):
        """The port-knocking emitter relies on hearing packets the flow
        table drops."""
        _sim, switch, _sinks = fabric
        seen = []
        switch.on_receive(lambda pkt, in_port: seen.append(pkt.flow.dst_port))
        switch.receive(packet(7001), in_port=1)
        assert seen == [7001]

    def test_forward_hook_sees_out_port(self, fabric):
        _sim, switch, _sinks = fabric
        switch.flow_table.install(Match(), Action.forward(3))
        seen = []
        switch.on_forward(lambda pkt, ip, op: seen.append((ip, op)))
        switch.receive(packet(), in_port=1)
        assert seen == [(1, 3)]

    def test_forward_hook_not_called_on_drop(self, fabric):
        _sim, switch, _sinks = fabric
        seen = []
        switch.on_forward(lambda pkt, ip, op: seen.append(op))
        switch.receive(packet(), in_port=1)  # default drop
        assert seen == []


class RecordingController(ControllerBase):
    def __init__(self):
        self.packet_ins = []

    def handle_packet_in(self, message):
        self.packet_ins.append(message)


class TestControlPlane:
    def test_controller_punt(self, fabric):
        sim, switch, _sinks = fabric
        switch.default_action = Action.controller()
        channel = ControlChannel(sim, latency=0.002)
        channel.register_switch(switch)
        controller = RecordingController()
        channel.register_controller(controller)
        switch.receive(packet(80), in_port=1)
        sim.run(0.01)
        assert len(controller.packet_ins) == 1
        message = controller.packet_ins[0]
        assert message.switch_name == "s1"
        assert message.in_port == 1

    def test_punt_without_channel_drops(self, fabric):
        _sim, switch, _sinks = fabric
        switch.default_action = Action.controller()
        switch.receive(packet(), in_port=1)
        assert switch.packets_dropped.total == 1

    def test_flow_mod_add_and_delete(self, fabric):
        sim, switch, sinks = fabric
        channel = ControlChannel(sim, latency=0.001)
        channel.register_switch(switch)
        channel.send_flow_mod(
            "s1", FlowMod(Match(dst_port=80), Action.forward(2), priority=5)
        )
        sim.run(0.01)
        switch.receive(packet(80), in_port=1)
        sim.run(0.02)
        assert len(sinks[2].arrivals) == 1
        channel.send_flow_mod(
            "s1", FlowMod(Match(dst_port=80), command=FlowModCommand.DELETE)
        )
        sim.run(0.03)
        switch.receive(packet(80), in_port=1)
        sim.run(0.04)
        assert len(sinks[2].arrivals) == 1  # now dropped

    def test_flow_mod_add_requires_action(self):
        with pytest.raises(ValueError):
            FlowMod(Match(), action=None, command=FlowModCommand.ADD)

    def test_channel_failure_drops_messages(self, fabric):
        sim, switch, _sinks = fabric
        channel = ControlChannel(sim, latency=0.001)
        channel.register_switch(switch)
        channel.fail()
        channel.send_flow_mod("s1", FlowMod(Match(), Action.drop()))
        sim.run(0.01)
        assert channel.messages_dropped == 1
        assert len(switch.flow_table) == 0

    def test_unknown_switch_rejected(self, fabric):
        sim, _switch, _sinks = fabric
        channel = ControlChannel(sim)
        with pytest.raises(ValueError):
            channel.send_flow_mod("nope", FlowMod(Match(), Action.drop()))

    def test_duplicate_switch_registration_rejected(self, fabric):
        sim, switch, _sinks = fabric
        channel = ControlChannel(sim)
        channel.register_switch(switch)
        with pytest.raises(ValueError):
            channel.register_switch(switch)
