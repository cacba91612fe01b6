"""Tests for strict flow deletion."""

from repro.net import (
    Action,
    FlowMod,
    FlowModCommand,
    Match,
    Simulator,
    single_switch_topology,
)


class TestStrictDelete:
    def test_strict_delete_spares_base_route(self):
        from repro.net import ControlChannel

        sim = Simulator()
        topo = single_switch_topology(sim, 2)  # installs base routes
        s1 = topo.switches["s1"]
        channel = ControlChannel(sim)
        channel.register_switch(s1)
        port = topo.port_towards("s1", "h2")
        base_entries = len(s1.flow_table)
        channel.send_flow_mod("s1", FlowMod(
            Match(dst_ip="10.0.0.2"), Action.forward(port), priority=100,
        ))
        sim.run(0.01)
        assert len(s1.flow_table) == base_entries + 1
        channel.send_flow_mod("s1", FlowMod(
            Match(dst_ip="10.0.0.2"), priority=100,
            command=FlowModCommand.DELETE, strict=True,
        ))
        sim.run(0.02)
        # Only the priority-100 overlay is gone; the base route survives.
        assert len(s1.flow_table) == base_entries
        topo.hosts["h1"].send_to("10.0.0.2", 80)
        sim.run(0.1)
        assert topo.hosts["h2"].bytes_received.total == 1000
