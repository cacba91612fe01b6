"""XEXT5 — acoustic device liveness monitoring.

The §1 management-task list ("device booting, restart ...") and §7's
powered-off-server anecdote motivate knowing a box's true state out of
band.  Every switch chirps a per-device heartbeat; the controller's
channel-health monitor declares a device DEAD after two missed beats.
Also includes the RED-vs-DCTCP marking ablation for the in-band
comparators.
"""

from conftest import report

from repro.core import ChannelHealth
from repro.core.apps import build_liveness_mesh
from repro.experiments.rigs import build_testbed


def test_xext5_device_death_detected(run_once):
    def devices_down(monitor):
        return sorted(device for device, state in monitor.states().items()
                      if state is ChannelHealth.DEAD)

    def run():
        testbed = build_testbed("rhombus")
        chirpers, monitor = build_liveness_mesh(
            testbed.controller, testbed.agents, testbed.plan
        )
        testbed.controller.start()
        testbed.sim.run(4.0)
        alive_at_4 = devices_down(monitor)
        chirpers["s_top"].kill()
        death_time = testbed.sim.now
        testbed.sim.run(12.0)
        dead = next(t for t in monitor.transitions
                    if t.emitter == "s_top" and t.state is ChannelHealth.DEAD)
        return alive_at_4, death_time, dead, devices_down(monitor)

    alive_at_4, death_time, dead, down = run_once(run)
    report("XEXT5: acoustic liveness monitoring (4 switches)", [
        ("false alarms before failure", alive_at_4),
        ("s_top killed at", f"{death_time:.1f} s"),
        ("declared down at", f"{dead.time:.1f} s"),
        ("detection latency", f"{dead.time - death_time:.1f} s"),
        ("down set at end", down),
    ])
    assert alive_at_4 == []
    assert down == ["s_top"]
    assert dead.time - death_time < 3.5


def test_xext5_red_vs_dctcp_marking(run_once):
    """Ablation: classic RED (EWMA) marks later than the DCTCP-style
    instantaneous threshold under a sharp congestion onset — context
    for why even in-band mechanisms differ, while the acoustic chirp
    is bounded by its period regardless."""
    from repro.baselines import ECNMarker
    from repro.baselines.red import REDMarker
    from repro.net import ConstantRateSource, Simulator, single_switch_topology

    def run():
        sim = Simulator()
        topo = single_switch_topology(sim, 2, bandwidth_bps=2_000_000)
        port = topo.port_towards("s1", "h2")
        direction = topo.switches["s1"].ports[port]
        dctcp = ECNMarker(direction, mark_threshold=25)
        red = REDMarker(direction, min_threshold=15, max_threshold=45,
                        weight=0.02, seed=1)
        first_mark = {"dctcp": None, "red": None}

        def on_forward(packet, _in, out):
            if out != port:
                return
            before = packet.ecn_marked
            dctcp.maybe_mark(packet, sim.now)
            if packet.ecn_marked and not before and first_mark["dctcp"] is None:
                first_mark["dctcp"] = sim.now
            packet.ecn_marked = before  # undo so RED judges independently
            red.maybe_mark(packet, sim.now)
            if packet.ecn_marked and not before and first_mark["red"] is None:
                first_mark["red"] = sim.now

        topo.switches["s1"].on_forward(on_forward)
        source = ConstantRateSource(topo.hosts["h1"], "10.0.0.2", 80,
                                    rate_pps=450, ecn_capable=True)
        source.launch()
        sim.run(8.0)
        return first_mark, dctcp.marked_count, red.marked_count

    first_mark, dctcp_count, red_count = run_once(run)
    report("XEXT5 ablation: DCTCP-style vs RED first-mark time", [
        ("DCTCP instantaneous", f"{first_mark['dctcp']:.3f} s"),
        ("RED (EWMA)", f"{first_mark['red']:.3f} s"),
        ("marks: dctcp/red", f"{dctcp_count}/{red_count}"),
    ])
    assert first_mark["dctcp"] is not None
    assert first_mark["red"] is not None
    # The EWMA lags the instantaneous rule on a sharp onset.
    assert first_mark["red"] >= first_mark["dctcp"]
