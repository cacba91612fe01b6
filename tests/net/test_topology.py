"""Unit tests for topology builders."""

import pytest

from repro.net import (
    Action,
    Simulator,
    Topology,
    linear_topology,
    rhombus_topology,
    single_switch_topology,
)


class TestTopologyBuilder:
    def test_duplicate_names_rejected(self):
        topo = Topology(Simulator())
        topo.add_switch("x")
        with pytest.raises(ValueError):
            topo.add_switch("x")
        with pytest.raises(ValueError):
            topo.add_host("x", "10.0.0.1")

    def test_node_lookup(self):
        topo = Topology(Simulator())
        topo.add_switch("s")
        topo.add_host("h", "10.0.0.1")
        assert topo.node("s").name == "s"
        assert topo.node("h").ip == "10.0.0.1"
        with pytest.raises(KeyError):
            topo.node("ghost")

    def test_port_towards(self):
        topo = Topology(Simulator())
        topo.add_switch("a")
        topo.add_switch("b")
        topo.add_switch("c")
        topo.connect("a", "b")
        topo.connect("a", "c")
        assert topo.port_towards("a", "b") == 1
        assert topo.port_towards("a", "c") == 2
        assert topo.port_towards("b", "a") == 1
        with pytest.raises(ValueError):
            topo.port_towards("b", "c")

    def test_install_route_requires_two_nodes(self):
        topo = Topology(Simulator())
        with pytest.raises(ValueError):
            topo.install_route(["a"], "10.0.0.1")


class TestSingleSwitch:
    def test_hosts_reach_each_other(self):
        sim = Simulator()
        topo = single_switch_topology(sim, num_hosts=3)
        topo.hosts["h1"].send_to("10.0.0.3", 80, size_bytes=700)
        sim.run(0.5)
        assert topo.hosts["h3"].bytes_received.total == 700
        assert topo.hosts["h2"].bytes_received.total == 0

    def test_closed_switch_drops(self):
        sim = Simulator()
        topo = single_switch_topology(sim, 2, default_action=Action.drop())
        topo.hosts["h1"].send_to("10.0.0.2", 80)
        sim.run(0.5)
        assert topo.hosts["h2"].bytes_received.total == 0
        assert topo.switches["s1"].packets_dropped.total == 1

    def test_requires_hosts(self):
        with pytest.raises(ValueError):
            single_switch_topology(Simulator(), 0)


class TestRhombus:
    def test_forward_path_via_top(self):
        sim = Simulator()
        topo = rhombus_topology(sim)
        topo.hosts["h1"].send_to("10.0.0.2", 80)
        sim.run(0.5)
        assert topo.hosts["h2"].bytes_received.total == 1000
        assert topo.switches["s_top"].packets_forwarded.total == 1
        assert topo.switches["s_bottom"].packets_forwarded.total == 0

    def test_reverse_path_via_bottom(self):
        sim = Simulator()
        topo = rhombus_topology(sim)
        topo.hosts["h2"].send_to("10.0.0.1", 80)
        sim.run(0.5)
        assert topo.hosts["h1"].bytes_received.total == 1000
        assert topo.switches["s_bottom"].packets_forwarded.total == 1

    def test_bottom_path_usable_after_split(self):
        from repro.net import Match
        sim = Simulator()
        topo = rhombus_topology(sim)
        s_in = topo.switches["s_in"]
        ports = [topo.port_towards("s_in", "s_top"),
                 topo.port_towards("s_in", "s_bottom")]
        s_in.flow_table.install(Match(dst_ip="10.0.0.2"),
                                Action.split(ports), priority=50)
        for _ in range(4):
            topo.hosts["h1"].send_to("10.0.0.2", 80)
        sim.run(0.5)
        assert topo.hosts["h2"].bytes_received.total == 4000
        assert topo.switches["s_top"].packets_forwarded.total == 2
        assert topo.switches["s_bottom"].packets_forwarded.total == 2


class TestLinear:
    def test_multi_hop_delivery(self):
        sim = Simulator()
        topo = linear_topology(sim, num_switches=4)
        topo.hosts["h1"].send_to("10.0.0.2", 80)
        sim.run(0.5)
        assert topo.hosts["h2"].bytes_received.total == 1000
        for name in ("s1", "s2", "s3", "s4"):
            assert topo.switches[name].packets_forwarded.total == 1

    def test_reverse_direction(self):
        sim = Simulator()
        topo = linear_topology(sim, num_switches=2)
        topo.hosts["h2"].send_to("10.0.0.1", 80)
        sim.run(0.5)
        assert topo.hosts["h1"].bytes_received.total == 1000

    def test_requires_switches(self):
        with pytest.raises(ValueError):
            linear_topology(Simulator(), 0)
