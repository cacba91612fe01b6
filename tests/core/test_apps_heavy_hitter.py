"""Application tests for acoustic heavy-hitter detection (§5)."""

import numpy as np
import pytest

from repro.audio import SongNoise
from repro.core.apps import (
    FlowToneMapper,
    HeavyHitterDetectorApp,
    HeavyHitterEmitter,
)
from repro.net import FlowKey, FlowMixWorkload, Protocol
from tests.core.rig import build_rig

LINK_PPS = 250.0  # 2 Mb/s at 1000 B packets


def assemble(num_buckets=16, with_song=False, seed=3):
    rig = build_rig("single")
    alloc = rig.plan.allocate("s1", num_buckets)
    mapper = FlowToneMapper(alloc)
    HeavyHitterEmitter(rig.topo.switches["s1"], rig.agents["s1"], mapper)
    app = HeavyHitterDetectorApp(rig.controller, mapper, interval=1.0,
                                 count_threshold=5)
    if with_song:
        song = SongNoise(seed=2018, level_db=55.0).render(8.0)
        rig.channel.add_noise(song, loop=True)
    rig.controller.start()
    mix = FlowMixWorkload(rig.topo.hosts["h1"], "10.0.0.2",
                          link_capacity_pps=LINK_PPS, num_flows=10,
                          heavy_fraction=0.3, seed=seed)
    return rig, mapper, app, mix


class TestFlowToneMapper:
    def test_deterministic(self):
        rig = build_rig("single")
        mapper = FlowToneMapper(rig.plan.allocate("s1", 8))
        flow = FlowKey("10.0.0.1", "10.0.0.2", 1234, 80)
        assert mapper.frequency_of(flow) == mapper.frequency_of(flow)

    def test_maps_into_allocation(self):
        rig = build_rig("single")
        alloc = rig.plan.allocate("s1", 8)
        mapper = FlowToneMapper(alloc)
        for index in range(50):
            flow = FlowKey("10.0.0.1", "10.0.0.2", 1000 + index, 80,
                           Protocol.UDP)
            assert mapper.frequency_of(flow) in alloc.frequencies


class TestDetection:
    def test_heavy_flow_flagged(self):
        rig, mapper, app, mix = assemble()
        mix.launch()
        rig.sim.run(6.0)
        heavy = mix.heavy_flows[0]
        assert app.is_flow_heavy(heavy)

    def test_mice_not_flagged(self):
        rig, mapper, app, mix = assemble()
        mix.launch()
        rig.sim.run(6.0)
        heavy_freq = mapper.frequency_of(mix.heavy_flows[0])
        flagged = app.heavy_frequencies()
        # Mice buckets (different from the heavy bucket) stay unflagged.
        mouse_freqs = {
            mapper.frequency_of(spec.flow)
            for spec in mix.specs[1:]
        } - {heavy_freq}
        assert flagged.isdisjoint(mouse_freqs)

    def test_alert_carries_interval_and_count(self):
        rig, _mapper, app, mix = assemble()
        mix.launch()
        rig.sim.run(6.0)
        assert app.alerts
        alert = app.alerts[0]
        assert alert.count > 5
        assert alert.interval_start >= 0.0

    def test_detection_with_song_noise(self):
        """Figure 4b: detection still works with a pop song playing."""
        rig, _mapper, app, mix = assemble(with_song=True)
        mix.launch()
        rig.sim.run(6.0)
        assert app.is_flow_heavy(mix.heavy_flows[0])

    def test_no_traffic_no_alerts(self):
        rig, _mapper, app, _mix = assemble()
        rig.sim.run(4.0)
        assert app.alerts == []

    def test_detection_latency_within_two_intervals(self):
        rig, _mapper, app, mix = assemble()
        mix.launch()
        rig.sim.run(6.0)
        assert app.alerts[0].interval_start <= 2.0


class TestScanCursor:
    """Regression: _scan_closed used to rescan every closed interval on
    every window (quadratic) and dedup alerts through an unbounded
    ``_alerted`` set.  The cursor makes each interval scanned once."""

    def _bus_app(self, count_threshold=5):
        from repro.core.frequency_plan import Allocation
        from repro.core.telemetry import ToneEventBus

        bus = ToneEventBus(window=0.1)
        alloc = Allocation("cursor-test", (1000.0, 1020.0, 1040.0))
        app = HeavyHitterDetectorApp(bus, FlowToneMapper(alloc),
                                     interval=1.0,
                                     count_threshold=count_threshold)
        return bus, app

    def test_one_alert_per_hot_interval_no_duplicates(self):
        bus, app = self._bus_app()
        intervals = 25
        for interval in range(intervals):
            for window in range(10):  # 10 windows of presence > 5
                bus.push(1000.0, interval + window * 0.1)
            bus.dispatch()  # repeated dispatches rescan closed history
        app.finalize(float(intervals))
        starts = [alert.interval_start for alert in app.alerts]
        assert starts == [float(i) for i in range(intervals)]

    def test_cursor_tracks_closed_and_alerted_set_is_gone(self):
        bus, app = self._bus_app()
        for interval in range(5):
            for window in range(10):
                bus.push(1000.0, interval + window * 0.1)
            bus.dispatch()
        app.finalize(5.0)
        assert app._scan_cursor == len(app.counter.closed)
        assert not hasattr(app, "_alerted")

    def test_quiet_buckets_never_alert(self):
        bus, app = self._bus_app()
        for interval in range(10):
            for window in range(3):  # 3 <= threshold 5
                bus.push(1020.0, interval + window * 0.1)
            bus.dispatch()
        app.finalize(10.0)
        assert app.alerts == []
