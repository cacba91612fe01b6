"""Unit tests for end hosts."""

import pytest

from repro.net import (
    ByteCounterSampler,
    FlowKey,
    Host,
    Link,
    Packet,
    Protocol,
    Simulator,
)


@pytest.fixture
def pair():
    sim = Simulator()
    h1 = Host(sim, "h1", "10.0.0.1")
    h2 = Host(sim, "h2", "10.0.0.2")
    Link(sim, h1, Host.NIC_PORT, h2, Host.NIC_PORT,
         bandwidth_bps=10_000_000, delay=0.0001)
    return sim, h1, h2


class TestSendReceive:
    def test_send_to_delivers(self, pair):
        sim, h1, h2 = pair
        h1.send_to("10.0.0.2", 80, size_bytes=500)
        sim.run(0.1)
        assert h2.bytes_received.total == 500
        assert h2.port_bytes == {80: 500}
        assert h1.bytes_sent.total == 500

    def test_wrong_destination_ignored(self, pair):
        sim, h1, h2 = pair
        h1.send_to("10.0.0.99", 80)
        sim.run(0.1)
        assert h2.bytes_received.total == 0
        assert h2.packets_misdelivered.total == 1

    def test_refused_sends_counted(self, pair):
        sim, h1, _h2 = pair
        h1.ports[Host.NIC_PORT].fail()
        h1.send_to("10.0.0.2", 80)
        assert h1.packets_sent.total == h1.packets_refused.total == 1

    def test_delivery_handler_called(self, pair):
        sim, h1, h2 = pair
        seen = []
        h2.on_delivery(lambda pkt: seen.append(pkt.flow.dst_port))
        h1.send_to("10.0.0.2", 443)
        sim.run(0.1)
        assert seen == [443]

    def test_explicit_src_port(self, pair):
        sim, h1, h2 = pair
        pkt = h1.send_to("10.0.0.2", 80, src_port=5555)
        assert pkt.flow.src_port == 5555

    def test_ephemeral_ports_vary(self, pair):
        _sim, h1, _h2 = pair
        a = h1.send_to("10.0.0.2", 80)
        b = h1.send_to("10.0.0.2", 80)
        assert a.flow.src_port != b.flow.src_port

    def test_protocol_propagated(self, pair):
        _sim, h1, _h2 = pair
        pkt = h1.send_to("10.0.0.2", 53, protocol=Protocol.UDP)
        assert pkt.flow.protocol is Protocol.UDP

    def test_packet_counters(self, pair):
        sim, h1, h2 = pair
        for _ in range(3):
            h1.send_to("10.0.0.2", 80)
        sim.run(0.1)
        assert h1.packets_sent.total == 3
        assert h2.packets_received.total == 3


class TestByteCounterSampler:
    def test_series_track_counters(self, pair):
        sim, h1, h2 = pair
        sampler = ByteCounterSampler(sim, h2, interval=0.5)
        sim.schedule_at(0.7, lambda: h1.send_to("10.0.0.2", 80, size_bytes=1000))
        sim.run(2.0)
        sampler.stop()
        # Samples at 0, 0.5 (before delivery) read 0; later read 1000.
        assert sampler.received.value_at(0.5) == 0
        assert sampler.received.value_at(1.5) == 1000

    def test_stop_halts_sampling(self, pair):
        sim, _h1, h2 = pair
        sampler = ByteCounterSampler(sim, h2, interval=0.1)
        sim.run(0.5)
        sampler.stop()
        count = len(sampler.received)
        sim.run(1.0)
        assert len(sampler.received) == count
