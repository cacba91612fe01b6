"""Packet conservation on the Fig 5a-b load-balancing rhombus.

The rig is the repository benchmark's ``lb-packets`` workload at its
small size: 2,000 mice flows for 2 s plus the ramp source from h1 to
h2, the queue chirper on s_in and the load-balancing controller app.
Once the sources stop and the network drains, every packet h1 sent
either reached h2 or is counted exactly once where it was lost::

    h1 sent == h2 received + h2 misdelivered + h1 refused
               + Σ switch drops + Σ link lost + Σ queue flushed

A node counts every packet its egress refuses (a switch in
``packets_dropped``, a host in ``packets_refused``), tail drops
included, so the queues' own ``dropped`` counts are not added again.
"""

import pytest

from repro.core.apps import BandToneMap, LoadBalancerApp, QueueChirper, SplitRule
from repro.experiments.rigs import build_testbed
from repro.net import (
    HostSink,
    Match,
    RampSource,
    VectorizedFlowDriver,
    build_workload,
)

SEED, FLOWS, DURATION = 11, 2_000, 2.0
DRAIN = 5.0


def build_rhombus(faults=()):
    """Build the rig; returns its simulator, topology and ramp source.

    ``faults`` are ``(time, (node, node), "fail" | "restore")`` edges
    applied to the link between the two nodes."""
    testbed = build_testbed("rhombus")
    sim, topo = testbed.sim, testbed.topo
    h1, h2 = topo.hosts["h1"], topo.hosts["h2"]
    p_top = topo.port_towards("s_in", "s_top")
    p_bottom = topo.port_towards("s_in", "s_bottom")
    tones = BandToneMap.from_frequencies(
        testbed.plan.allocate("s_in", 3).frequencies
    )
    QueueChirper(sim, topo.switches["s_in"], p_top, testbed.agents["s_in"], tones)
    LoadBalancerApp(
        testbed.controller, {"s_in": tones},
        {"s_in": SplitRule("s_in", Match(dst_ip=h2.ip), [p_top, p_bottom])},
    )
    testbed.controller.start()
    population = build_workload(
        "mice", num_flows=FLOWS, seed=SEED, duration=DURATION
    ).build().retarget(h2.ip)
    VectorizedFlowDriver(sim, population, HostSink(h1, population),
                         stop=DURATION).launch()
    ramp = RampSource(h1, h2.ip, 80, initial_rate_pps=50.0,
                      slope_pps_per_s=60.0, max_rate_pps=350.0)
    ramp.launch()
    for time, ends, edge in faults:
        link = next(link for link in topo.links
                    if {link.node_a.name, link.node_b.name} == set(ends))
        sim.schedule_at(time, getattr(link, edge))
    return sim, topo, ramp


def run_rhombus(faults=()):
    """Run the rig, halt its sources at ``DURATION`` and drain it."""
    sim, topo, ramp = build_rhombus(faults)
    sim.run(DURATION)
    ramp.halt()
    sim.run(DURATION + DRAIN)
    return topo


def balance(topo):
    """Both sides of the conservation law, plus the drained check."""
    h1, h2 = topo.hosts["h1"], topo.hosts["h2"]
    directions = [direction for node in [*topo.switches.values(),
                                         *topo.hosts.values()]
                  for direction in node.ports.values()]
    assert all(not d.busy and len(d.queue) == 0 for d in directions)
    lost = {
        "misdelivered": h2.packets_misdelivered.total,
        "refused": h1.packets_refused.total,
        "switch_drops": sum(s.packets_dropped.total
                            for s in topo.switches.values()),
        "link_lost": sum(d.lost.total for d in directions),
        "flushed": sum(d.queue.flushed for d in directions),
    }
    return h1.packets_sent.total, h2.packets_received.total, lost


@pytest.mark.parametrize("faults", [
    (),
    (
        (0.5, ("h1", "s_in"), "fail"),
        (0.55, ("h1", "s_in"), "restore"),
        (0.8, ("s_in", "s_top"), "fail"),
        (1.3, ("s_in", "s_top"), "restore"),
    ),
], ids=["healthy", "link-failures"])
def test_every_packet_sent_is_received_or_counted_lost(faults):
    sent, received, lost = balance(run_rhombus(faults))
    assert sent == received + sum(lost.values())
    assert received > 0 and lost["switch_drops"] > 0
    if faults:
        # Each kind of loss a failure causes shows up in its counter.
        assert lost["refused"] > 0
        assert lost["link_lost"] > 0
        assert lost["flushed"] > 0
