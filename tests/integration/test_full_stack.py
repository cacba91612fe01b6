"""Integration: multiple MDN applications coexisting on one testbed.

Section 3: "it is possible to support multiple MDN applications
simultaneously, as long as each task uses a different set of
frequencies and the listening application knows the frequency
mappings."  This test runs port knocking AND queue monitoring at the
same time over one air channel and one controller.  Two full
experiments, each run twice, must also give identical results.
"""

import pytest

from repro.core.apps import (
    BandToneMap,
    KnockConfig,
    KnockEmitter,
    PortKnockingApp,
    QueueChirper,
    QueueMonitorApp,
)
from repro.net import Action, Match, OnOffSource
from tests.core.rig import build_rig
from tests.core.test_frequency_plan import assert_guarded


class TestConcurrentApplications:
    def test_knocking_and_queue_monitoring_coexist(self):
        rig = build_rig("single")
        s1 = rig.topo.switches["s1"]
        # Close only the protected port; baseline routes stay.
        s1.flow_table.install(Match(dst_port=8080), Action.drop(), priority=50)

        knock_alloc = rig.plan.allocate("s1/knock", 3)
        config = KnockConfig([7001, 7002, 7003], 8080, knock_alloc)
        KnockEmitter(s1, rig.agents["s1"], config)
        knock_app = PortKnockingApp(rig.controller, "s1", "10.0.0.2", config)
        knock_app.set_output_port(rig.topo.port_towards("s1", "h2"))

        # Queue monitoring needs its own frequencies AND its own
        # speaker (one speaker is half-duplex).
        from repro.audio import Position, Speaker
        from repro.core.agent import MusicAgent
        chirp_agent = MusicAgent(
            rig.sim, rig.channel, Speaker(Position(0.0, -0.9, 0.0)), "s1-chirp"
        )
        band_alloc = rig.plan.allocate("s1/bands", 3)
        tones = BandToneMap.from_frequencies(band_alloc.frequencies)
        port = rig.topo.port_towards("s1", "h2")
        QueueChirper(rig.sim, s1, port, chirp_agent, tones)
        monitor_app = QueueMonitorApp(rig.controller, "s1", tones)

        rig.controller.start()

        # Congest the switch while also knocking.
        burst = OnOffSource(rig.topo.hosts["h1"], "10.0.0.2", 80,
                            rate_pps=500, on_duration=1.5, off_duration=30.0)
        burst.launch()
        h1 = rig.topo.hosts["h1"]
        for index, knock_port in enumerate(config.knock_ports):
            rig.sim.schedule_at(3.0 + index,
                                lambda p=knock_port: h1.send_to("10.0.0.2", p))
        rig.sim.run(10.0)

        # Both applications did their jobs on the same air.
        assert knock_app.is_open
        bands_heard = [band for _t, band in monitor_app.band_history]
        assert "high" in bands_heard
        assert monitor_app.current_band == "low"

    def test_plan_keeps_apps_disjoint(self):
        rig = build_rig("single")
        first = rig.plan.allocate("s1/knock", 3)
        second = rig.plan.allocate("s1/bands", 3)
        assert set(first.frequencies).isdisjoint(second.frequencies)
        assert_guarded(rig.plan)


class TestControlChannelIndependence:
    def test_sound_path_works_while_control_channel_down_for_data(self):
        """Out-of-band property: the acoustic detection itself does not
        depend on the network; only the FlowMod push needs the control
        channel."""
        rig = build_rig("single", default_action=Action.drop())
        alloc = rig.plan.allocate("s1", 3)
        config = KnockConfig([7001, 7002, 7003], 8080, alloc)
        KnockEmitter(rig.topo.switches["s1"], rig.agents["s1"], config)
        app = PortKnockingApp(rig.controller, "s1", "10.0.0.2", config)
        app.set_output_port(rig.topo.port_towards("s1", "h2"))
        rig.controller.start()
        rig.control.fail()  # southbound dead: FlowMod will be dropped
        h1 = rig.topo.hosts["h1"]
        for index, port in enumerate(config.knock_ports):
            rig.sim.schedule_at(1.0 + index,
                                lambda p=port: h1.send_to("10.0.0.2", p))
        rig.sim.run(6.0)
        # The FSM accepted (sound got through) ...
        assert app.is_open
        # ... but the flow entry never landed (control channel down).
        assert rig.control.messages_dropped >= 1
        h1.send_to("10.0.0.2", 8080)
        rig.sim.run(7.0)
        assert rig.topo.hosts["h2"].port_bytes.get(8080) is None


class TestDeterminism:
    def test_identical_runs_produce_identical_results(self):
        """The reproducibility invariant: two runs of the same
        experiment are bit-identical (no hidden wall-clock or
        unordered iteration anywhere in the stack)."""
        from repro.experiments import queue_monitor_experiment

        first = queue_monitor_experiment()
        second = queue_monitor_experiment()
        assert first.queue_series.values == second.queue_series.values
        assert first.band_history == second.band_history

    def test_fig4_determinism(self):
        from repro.experiments import heavy_hitter_experiment

        first = heavy_hitter_experiment()
        second = heavy_hitter_experiment()
        assert first.per_interval_heavy_counts.values == \
            second.per_interval_heavy_counts.values
        assert first.alerts == second.alerts
