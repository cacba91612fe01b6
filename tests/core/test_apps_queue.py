"""Application tests for queue chirping, monitoring and load balancing (§6)."""

import pytest

from repro.core.apps import (
    BandToneMap,
    FIG5_BAND_FREQUENCIES,
    LoadBalancerApp,
    QueueChirper,
    QueueMonitorApp,
    SplitRule,
)
from repro.net import Match, OnOffSource, QueueBands, RampSource
from tests.core.rig import build_rig

FIG5_TONES = BandToneMap(**{k: v for k, v in zip(
    ("low", "medium", "high"),
    (FIG5_BAND_FREQUENCIES["low"], FIG5_BAND_FREQUENCIES["medium"],
     FIG5_BAND_FREQUENCIES["high"]),
)})


class TestBandToneMap:
    def test_roundtrip(self):
        tones = BandToneMap(500, 600, 700)
        for band in ("low", "medium", "high"):
            assert tones.band_of(tones.frequency_of(band)) == band

    def test_from_frequencies(self):
        tones = BandToneMap.from_frequencies((500.0, 600.0, 700.0, 800.0))
        assert tones.frequencies() == [500.0, 600.0, 700.0]

    def test_from_frequencies_requires_three(self):
        with pytest.raises(ValueError):
            BandToneMap.from_frequencies((500.0, 600.0))


class TestQueueChirper:
    def test_chirps_low_band_when_idle(self):
        rig = build_rig("single")
        s1 = rig.topo.switches["s1"]
        port = rig.topo.port_towards("s1", "h2")
        chirper = QueueChirper(rig.sim, s1, port, rig.agents["s1"], FIG5_TONES)
        rig.sim.run(1.0)
        tones = rig.channel.scheduled_tones
        assert len(tones) == 3  # every 300 ms
        assert all(t.spec.frequency == 500.0 for t in tones)
        chirper.stop()

    def test_chirp_frequency_tracks_band(self):
        rig = build_rig("single")
        s1 = rig.topo.switches["s1"]
        port = rig.topo.port_towards("s1", "h2")
        chirper = QueueChirper(rig.sim, s1, port, rig.agents["s1"], FIG5_TONES)
        # Burst that fills the queue past 75 packets: 2 Mb/s egress
        # drains 250 pps; send 600 pps for 1 s -> queue ~ 350 capped at 150.
        source = OnOffSource(rig.topo.hosts["h1"], "10.0.0.2", 80,
                             rate_pps=600, on_duration=1.0, off_duration=5.0)
        source.launch()
        rig.sim.run(1.1)
        high_chirps = [t for t in rig.channel.scheduled_tones
                       if t.spec.frequency == 700.0]
        assert high_chirps
        assert chirper.queue_series.max() > 75

    def test_queue_series_recorded(self):
        rig = build_rig("single")
        port = rig.topo.port_towards("s1", "h2")
        chirper = QueueChirper(rig.sim, rig.topo.switches["s1"], port,
                               rig.agents["s1"], FIG5_TONES)
        rig.sim.run(2.0)
        assert len(chirper.queue_series) == 6

    def test_change_only_mode_quiet_in_steady_state(self):
        rig = build_rig("single")
        port = rig.topo.port_towards("s1", "h2")
        QueueChirper(rig.sim, rig.topo.switches["s1"], port,
                     rig.agents["s1"], FIG5_TONES, always_chirp=False,
                     refresh_every=100)
        rig.sim.run(2.0)
        # Only the first classification chirps; band never changes.
        assert len(rig.channel.scheduled_tones) == 1


class TestQueueMonitorApp:
    def build(self):
        rig = build_rig("single")
        port = rig.topo.port_towards("s1", "h2")
        chirper = QueueChirper(rig.sim, rig.topo.switches["s1"], port,
                               rig.agents["s1"], FIG5_TONES)
        app = QueueMonitorApp(rig.controller, "s1", FIG5_TONES)
        rig.controller.start()
        return rig, chirper, app

    def test_tracks_idle_as_low(self):
        rig, _chirper, app = self.build()
        rig.sim.run(2.0)
        assert app.current_band == "low"
        assert not app.is_congested

    def test_figure5c_fill_and_drain_cycle(self):
        """Queue fills (low->medium->high) then drains back to low; the
        controller's heard-band history must follow, ending at low —
        'the queue size gets again lower than 25 packets and the
        controller is notified with another sound at a lower
        frequency (500 Hz)'."""
        rig, chirper, app = self.build()
        source = OnOffSource(rig.topo.hosts["h1"], "10.0.0.2", 80,
                             rate_pps=500, on_duration=1.2, off_duration=30.0)
        source.launch()
        rig.sim.run(8.0)
        bands_heard = [band for _t, band in app.band_history]
        assert "high" in bands_heard
        assert app.current_band == "low"
        # The actual queue really did cross 75 and come back under 25.
        assert chirper.queue_series.max() > 75
        assert chirper.queue_series.final() < 25


class TestLoadBalancerApp:
    def build(self, max_rate=350):
        rig = build_rig("rhombus")
        p_top = rig.topo.port_towards("s_in", "s_top")
        p_bottom = rig.topo.port_towards("s_in", "s_bottom")
        alloc = rig.plan.allocate("s_in", 3)
        tones = BandToneMap.from_frequencies(alloc.frequencies)
        chirper = QueueChirper(rig.sim, rig.topo.switches["s_in"], p_top,
                               rig.agents["s_in"], tones)
        app = LoadBalancerApp(
            rig.controller,
            {"s_in": tones},
            {"s_in": SplitRule("s_in", Match(dst_ip="10.0.0.2"),
                               [p_top, p_bottom])},
        )
        rig.controller.start()
        ramp = RampSource(rig.topo.hosts["h1"], "10.0.0.2", 80,
                          initial_rate_pps=50, slope_pps_per_s=60,
                          max_rate_pps=max_rate)
        ramp.launch()
        return rig, chirper, app

    def test_congestion_triggers_split(self):
        rig, _chirper, app = self.build()
        rig.sim.run(15.0)
        assert app.any_rebalanced
        assert "s_in" in app.rebalanced_at

    def test_queue_drains_after_split(self):
        """The Figure 5a shape: queue builds, the split lands, queue
        returns below the low threshold."""
        rig, chirper, app = self.build()
        rig.sim.run(20.0)
        split_time = app.rebalanced_at["s_in"]
        before = chirper.queue_series.window(0.0, split_time + 0.31)
        after = chirper.queue_series.window(split_time + 3.0, 20.0)
        assert before.max() > 75
        assert after.final() < 25

    def test_traffic_flows_on_both_paths_after_split(self):
        rig, _chirper, _app = self.build()
        rig.sim.run(15.0)
        assert rig.topo.switches["s_bottom"].packets_forwarded.total > 0

    def test_split_installed_once(self):
        rig, _chirper, app = self.build()
        rig.sim.run(20.0)
        assert rig.control.flow_mods_sent == 1

    def test_no_congestion_no_split(self):
        rig, _chirper, app = self.build(max_rate=100)  # under capacity
        rig.sim.run(10.0)
        assert not app.any_rebalanced

    def test_tone_log_records_bands(self):
        rig, _chirper, app = self.build()
        rig.sim.run(10.0)
        bands = {band for _t, _s, band in app.tone_log}
        assert "low" in bands
        assert "high" in bands

    def test_rules_for_unmonitored_switch_rejected(self):
        rig = build_rig("rhombus")
        alloc = rig.plan.allocate("s_in", 3)
        tones = BandToneMap.from_frequencies(alloc.frequencies)
        with pytest.raises(ValueError, match="unmonitored"):
            LoadBalancerApp(rig.controller, {"s_in": tones},
                            {"ghost": SplitRule("ghost", Match(), [1, 2])})
