"""Unit tests for links: serialization, delay, queueing, failure."""

import pytest

from repro.net import FlowKey, Link, Node, Packet, Simulator


class Sink(Node):
    """Test node recording (packet, in_port, time) arrivals."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.arrivals = []

    def receive(self, packet, in_port):
        self.arrivals.append((packet, in_port, self.sim.now))


def packet(size=1000):
    return Packet(FlowKey("10.0.0.1", "10.0.0.2", 1, 2), size_bytes=size)


@pytest.fixture
def wired():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = Link(sim, a, 1, b, 1, bandwidth_bps=1_000_000, delay=0.01)
    return sim, a, b, link


class TestDelivery:
    def test_serialization_plus_propagation(self, wired):
        sim, a, b, link = wired
        # 1000 B at 1 Mb/s -> 8 ms serialization + 10 ms delay = 18 ms.
        a.transmit(packet(1000), 1)
        sim.run(1.0)
        assert len(b.arrivals) == 1
        _pkt, in_port, when = b.arrivals[0]
        assert in_port == 1
        assert when == pytest.approx(0.018)

    def test_bidirectional(self, wired):
        sim, a, b, link = wired
        a.transmit(packet(), 1)
        b.transmit(packet(), 1)
        sim.run(1.0)
        assert len(a.arrivals) == 1
        assert len(b.arrivals) == 1

    def test_hop_count_incremented(self, wired):
        sim, a, b, _link = wired
        pkt = packet()
        assert pkt.hops == 0
        a.transmit(pkt, 1)
        sim.run(1.0)
        assert b.arrivals[0][0].hops == 1

    def test_back_to_back_packets_serialize(self, wired):
        sim, a, b, _link = wired
        for _ in range(3):
            a.transmit(packet(1000), 1)
        sim.run(1.0)
        times = [when for _p, _ip, when in b.arrivals]
        # 8 ms apart: the line is busy, packets queue.
        assert times == pytest.approx([0.018, 0.026, 0.034])

    def test_counters(self, wired):
        sim, a, b, link = wired
        a.transmit(packet(500), 1)
        sim.run(1.0)
        assert link.a_to_b.bytes_sent.total == 500
        assert link.a_to_b.packets_sent.total == 1


class TestQueueing:
    def test_overflow_drops(self):
        sim = Simulator()
        a, b = Sink(sim, "a"), Sink(sim, "b")
        Link(sim, a, 1, b, 1, bandwidth_bps=1_000_000, delay=0.001,
             queue_capacity=2)
        # One transmitting + 2 queued; the rest are dropped.
        results = [a.transmit(packet(), 1) for _ in range(5)]
        assert results == [True, True, True, False, False]
        sim.run(1.0)
        assert len(b.arrivals) == 3

    def test_queue_length_visible_from_node(self):
        sim = Simulator()
        a, b = Sink(sim, "a"), Sink(sim, "b")
        Link(sim, a, 1, b, 1, bandwidth_bps=1_000_000, delay=0.001)
        for _ in range(4):
            a.transmit(packet(), 1)
        assert a.queue_length(1) == 3  # head is on the wire

    def test_unknown_port_errors(self):
        sim = Simulator()
        node = Sink(sim, "x")
        with pytest.raises(ValueError):
            node.transmit(packet(), 9)
        with pytest.raises(ValueError):
            node.queue_length(9)

    def test_double_attach_rejected(self):
        sim = Simulator()
        a, b, c = Sink(sim, "a"), Sink(sim, "b"), Sink(sim, "c")
        Link(sim, a, 1, b, 1)
        with pytest.raises(ValueError):
            Link(sim, a, 1, c, 1)


class TestAsymmetry:
    def test_per_direction_bandwidth(self):
        sim = Simulator()
        a, b = Sink(sim, "a"), Sink(sim, "b")
        Link(sim, a, 1, b, 1, bandwidth_bps=8_000_000, delay=0.0,
             bandwidth_ba_bps=1_000_000)
        a.transmit(packet(1000), 1)   # 1 ms at 8 Mb/s
        b.transmit(packet(1000), 1)   # 8 ms at 1 Mb/s
        sim.run(1.0)
        assert b.arrivals[0][2] == pytest.approx(0.001)
        assert a.arrivals[0][2] == pytest.approx(0.008)


class TestFailure:
    def test_failed_link_drops_traffic(self, wired):
        sim, a, b, link = wired
        link.fail()
        assert not a.transmit(packet(), 1)
        sim.run(1.0)
        assert b.arrivals == []

    def test_fail_flushes_queue(self, wired):
        sim, a, b, link = wired
        for _ in range(3):
            a.transmit(packet(), 1)
        link.fail()
        sim.run(1.0)
        assert b.arrivals == []
        assert a.queue_length(1) == 0
        # One on the wire (lost at the failure), two queued.
        queue = link.a_to_b.queue
        assert (queue.dequeued, queue.flushed) == (0, 2)
        assert link.a_to_b.lost.total == 1

    def test_in_flight_packet_lost_on_failure(self, wired):
        sim, a, b, link = wired
        a.transmit(packet(), 1)   # arrives at 18 ms if healthy
        sim.run(0.005)
        link.fail()
        sim.run(1.0)
        assert b.arrivals == []
        assert link.a_to_b.lost.total == 1
        assert link.a_to_b.packets_sent.total == 0

    def test_packet_propagating_at_failure_is_lost(self, wired):
        sim, a, b, link = wired
        a.transmit(packet(), 1)   # serialized by 8 ms, arrives at 18 ms
        sim.run(0.010)
        link.fail()
        sim.run(1.0)
        assert b.arrivals == []
        assert link.a_to_b.packets_sent.total == 1
        assert link.a_to_b.lost.total == 1

    def test_flap_shorter_than_serialization_loses_the_packet(self, wired):
        sim, a, b, link = wired
        a.transmit(packet(), 1)   # serialized by 8 ms if healthy
        sim.schedule_at(0.002, link.fail)
        sim.schedule_at(0.004, link.restore)
        sim.run(1.0)
        assert b.arrivals == []
        assert link.a_to_b.lost.total == 1
        assert not link.a_to_b.busy

    def test_send_after_restore_starts_at_once(self, wired):
        sim, a, b, link = wired
        a.transmit(packet(), 1)
        sim.run(0.002)
        link.fail()
        sim.run(0.004)
        link.restore()
        a.transmit(packet(), 1)   # not behind the lost packet: 4 + 8 + 10 ms
        sim.run(1.0)
        assert [when for _pkt, _port, when in b.arrivals] == [
            pytest.approx(0.022)]

    def test_restore_resumes(self, wired):
        sim, a, b, link = wired
        link.fail()
        link.restore()
        a.transmit(packet(), 1)
        sim.run(1.0)
        assert len(b.arrivals) == 1

    def test_validation(self):
        sim = Simulator()
        a, b = Sink(sim, "a"), Sink(sim, "b")
        with pytest.raises(ValueError):
            Link(sim, a, 1, b, 1, bandwidth_bps=0)
        with pytest.raises(ValueError):
            Link(sim, a, 2, b, 2, delay=-1.0)
