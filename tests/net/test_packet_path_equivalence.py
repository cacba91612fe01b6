"""The flattened per-packet path against its one-method-per-step
specification (``tests/net/reference_net.py``).

A host → switch → two-port split → switch → host chain is built twice,
once from the real classes and once from the reference ones, each on
its own :class:`Simulator`, and both are driven through the same sends
and link failures.  The inputs make ties the common case: bandwidths,
packet sizes, delays and every send/fault time are binary-exact, so
serialization ends, arrivals, queue samples and faults keep landing on
the same instants, and queues of 1–4 packets overflow often.  The two
runs must deliver the same packets to the same nodes at the same times
in the same order, see the same queue lengths at every delivery and
sample, count the same, and dispatch the same number of events.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Action, FlowKey, Host, Link, Match, Packet, Simulator, Switch
from tests.net.reference_net import ReferenceHost, ReferenceLink, ReferenceSwitch

H1_IP, H2_IP = "10.0.0.1", "10.0.0.2"
DROP_PORT, BLACKHOLE_PORT = 23, 99
#: Where a send is addressed: h2 proper, an address nobody owns (s2
#: forwards it to h2 anyway: misdelivered), a port s1 drops, and a port
#: s2 forwards to a port it does not have.
DESTINATIONS = {
    "h2": (H2_IP, 80),
    "stray": ("10.0.0.9", 80),
    "drop": (H2_IP, DROP_PORT),
    "blackhole": (H2_IP, BLACKHOLE_PORT),
}
STEP = 0.125
HORIZON = 16.0  # every send and fault lands by 2 s; the chain drains long before

_SEND = st.tuples(
    st.just("send"),
    st.integers(min_value=0, max_value=16),
    st.sampled_from([125, 250, 500]),
    st.sampled_from(["h2", "h2", "h2", "stray", "drop", "blackhole"]),
)
_FAULT = st.tuples(
    st.just("fault"),
    st.integers(min_value=0, max_value=16),
    st.integers(min_value=0, max_value=3),
    st.booleans(),  # True restores the link, False fails it
)
_NETS = st.tuples(
    st.lists(st.sampled_from([8_000.0, 16_000.0, 32_000.0]), min_size=4, max_size=4),
    st.lists(st.sampled_from([0.0, 0.125, 0.25]), min_size=4, max_size=4),
    st.lists(st.integers(min_value=1, max_value=4), min_size=4, max_size=4),
)
_OPS = st.lists(st.one_of(_SEND, _SEND, _FAULT), min_size=1, max_size=40)


def build(sim, classes, bandwidths, delays, capacities):
    host_cls, switch_cls, link_cls = classes
    h1, h2 = host_cls(sim, "h1", H1_IP), host_cls(sim, "h2", H2_IP)
    s1, s2 = switch_cls(sim, "s1"), switch_cls(sim, "s2")
    ends = [(h1, 0, s1, 1), (s1, 2, s2, 1), (s1, 3, s2, 2), (s2, 3, h2, 0)]
    links = [
        link_cls(sim, a, port_a, b, port_b, bandwidth_bps=bandwidth,
                 delay=delay, queue_capacity=capacity)
        for (a, port_a, b, port_b), bandwidth, delay, capacity
        in zip(ends, bandwidths, delays, capacities)
    ]
    s1.flow_table.install(Match(dst_port=DROP_PORT), Action.drop(), priority=10)
    s1.flow_table.install(Match(), Action.split([2, 3]), priority=5)
    s2.flow_table.install(Match(dst_port=BLACKHOLE_PORT), Action.forward(9),
                          priority=10)
    s2.flow_table.install(Match(), Action.forward(3), priority=5)
    return h1, h2, [s1, s2], links


def play(classes, net_params, ops):
    """Run one network through ``ops``; returns it and its delivery log."""
    sim = Simulator()
    h1, h2, switches, links = build(sim, classes, *net_params)
    directions = [d for link in links for d in (link.a_to_b, link.b_to_a)]
    log = []

    def record(node, in_port, packet):
        lengths = tuple(len(direction.queue) for direction in directions)
        log.append((sim.now, node, in_port, packet.packet_id, lengths))

    for switch in switches:
        switch.on_receive(
            lambda packet, in_port, name=switch.name: record(name, in_port, packet))
    h2.on_delivery(lambda packet: record("h2", Host.NIC_PORT, packet))

    def sample():
        for direction in directions:
            direction.queue.sample(sim.now)

    sim.every(STEP, sample, start=0.0)
    for index, op in enumerate(ops):
        if op[0] == "send":
            _kind, step, size, destination = op
            dst_ip, dst_port = DESTINATIONS[destination]
            packet = Packet(FlowKey(H1_IP, dst_ip, 1000, dst_port),
                            size_bytes=size, created_at=step * STEP,
                            packet_id=index)
            sim.schedule_at(step * STEP, h1.send_packet, packet)
        else:
            _kind, step, link, restore = op
            action = links[link].restore if restore else links[link].fail
            sim.schedule_at(step * STEP, action)
    sim.run(HORIZON)
    return sim, h1, h2, switches, directions, log


def counters(sim, h1, h2, switches, directions):
    """Every counter both paths keep (``dequeued`` is compared apart)."""
    return {
        "events": (sim.events_processed, sim.pending_events()),
        "h1": (h1.bytes_sent.total, h1.packets_sent.total),
        "h2": (h2.bytes_received.total, h2.packets_received.total,
               h2.port_bytes),
        "switches": [
            (s.packets_received.total, s.packets_forwarded.total,
             s.packets_dropped.total, s.bytes_received.total,
             [(e.packet_count, e.byte_count) for e in s.flow_table.entries])
            for s in switches
        ],
        "directions": [
            (d.bytes_sent.total, d.packets_sent.total, d.queue.enqueued,
             d.queue.dropped, d.queue.peak_length, len(d.queue), d.busy, d.up,
             d.queue.occupancy.times, d.queue.occupancy.values)
            for d in directions
        ],
    }


REAL = (Host, Switch, Link)
REFERENCE = (ReferenceHost, ReferenceSwitch, ReferenceLink)


class TestPacketPathEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(_NETS, _OPS)
    def test_matches_reference_path(self, net_params, ops):
        real = play(REAL, net_params, ops)
        reference = play(REFERENCE, net_params, ops)
        # Same deliveries, nodes, ports, times, order and queue lengths.
        assert real[-1] == reference[-1]
        assert counters(*real[:-1]) == counters(*reference[:-1])
        # The reference drains a failed link's queue through dequeue().
        assert [d.queue.dequeued + d.queue.flushed for d in real[-2]] == \
            [d.queue.dequeued for d in reference[-2]]

    @settings(max_examples=100, deadline=None)
    @given(_NETS, _OPS)
    def test_every_packet_is_accounted_for(self, net_params, ops):
        """Once drained, each packet h1 sent reached h2, or exactly one
        counter names where it was lost."""
        _sim, h1, h2, switches, directions, _log = play(REAL, net_params, ops)
        assert all(not d.busy and len(d.queue) == 0 for d in directions)
        assert h1.packets_sent.total == (
            h2.packets_received.total + h2.packets_misdelivered.total
            + h1.packets_refused.total
            + sum(s.packets_dropped.total for s in switches)
            + sum(d.lost.total + d.queue.flushed for d in directions)
        )
