"""Unit tests for traffic generators."""

import pytest

from repro.net import (
    ConstantRateSource,
    FlowMixWorkload,
    OnOffSource,
    PortScanSource,
    RampSource,
    Simulator,
    single_switch_topology,
)


@pytest.fixture
def net():
    sim = Simulator()
    topo = single_switch_topology(sim, 2, bandwidth_bps=50_000_000,
                                  access_bandwidth_bps=50_000_000)
    return sim, topo.hosts["h1"], topo.hosts["h2"]


class TestConstantRate:
    def test_emits_at_rate(self, net):
        sim, h1, h2 = net
        src = ConstantRateSource(h1, "10.0.0.2", 80, rate_pps=100,
                                 start=0.0, stop=2.0)
        src.launch()
        sim.run(3.0)
        assert src.packets_emitted == pytest.approx(200, abs=2)
        assert h2.packets_received.total == src.packets_emitted

    def test_start_stop_window(self, net):
        sim, h1, _h2 = net
        src = ConstantRateSource(h1, "10.0.0.2", 80, rate_pps=10,
                                 start=1.0, stop=1.5)
        src.launch()
        sim.run(0.9)
        assert src.packets_emitted == 0
        sim.run(3.0)
        assert 4 <= src.packets_emitted <= 6

    def test_halt(self, net):
        sim, h1, _h2 = net
        src = ConstantRateSource(h1, "10.0.0.2", 80, rate_pps=100)
        src.launch()
        sim.run(0.5)
        src.halt()
        count = src.packets_emitted
        sim.run(2.0)
        assert src.packets_emitted == count

    def test_double_launch_rejected(self, net):
        _sim, h1, _h2 = net
        src = ConstantRateSource(h1, "10.0.0.2", 80, rate_pps=10)
        src.launch()
        with pytest.raises(RuntimeError):
            src.launch()

    def test_validation(self, net):
        _sim, h1, _h2 = net
        with pytest.raises(ValueError):
            ConstantRateSource(h1, "10.0.0.2", 80, rate_pps=0)


class TestRamp:
    def test_rate_increases(self, net):
        sim, h1, _h2 = net
        src = RampSource(h1, "10.0.0.2", 80, initial_rate_pps=10,
                         slope_pps_per_s=20)
        src.launch()
        sim.run(1.0)
        first_second = src.packets_emitted
        sim.run(2.0)
        second_second = src.packets_emitted - first_second
        assert second_second > first_second

    def test_cap_respected(self, net):
        sim, h1, _h2 = net
        src = RampSource(h1, "10.0.0.2", 80, initial_rate_pps=10,
                         slope_pps_per_s=1000, max_rate_pps=50)
        src.launch()
        sim.run(5.0)
        assert src.current_rate() == 50

    def test_validation(self, net):
        _sim, h1, _h2 = net
        with pytest.raises(ValueError):
            RampSource(h1, "10.0.0.2", 80, initial_rate_pps=0,
                       slope_pps_per_s=1)
        with pytest.raises(ValueError):
            RampSource(h1, "10.0.0.2", 80, initial_rate_pps=1,
                       slope_pps_per_s=-1)


class TestOnOff:
    def test_bursts_and_silence(self, net):
        sim, h1, _h2 = net
        src = OnOffSource(h1, "10.0.0.2", 80, rate_pps=100,
                          on_duration=0.5, off_duration=0.5)
        src.launch()
        sim.run(2.0)
        # Two ON halves of ~50 packets each.
        assert src.packets_emitted == pytest.approx(100, abs=6)

    def test_validation(self, net):
        _sim, h1, _h2 = net
        with pytest.raises(ValueError):
            OnOffSource(h1, "10.0.0.2", 80, rate_pps=10,
                        on_duration=0, off_duration=1)


class TestPortScan:
    def test_covers_all_ports_once(self, net):
        sim, h1, h2 = net
        src = PortScanSource(h1, "10.0.0.2", range(8000, 8020), interval=0.01)
        src.launch()
        sim.run(1.0)
        assert src.packets_emitted == 20
        assert set(h2.port_bytes) == set(range(8000, 8020))

    def test_probes_per_port(self, net):
        sim, h1, h2 = net
        src = PortScanSource(h1, "10.0.0.2", range(8000, 8005),
                             interval=0.01, probes_per_port=3)
        src.launch()
        sim.run(1.0)
        assert src.packets_emitted == 15
        assert all(v == 3000 for v in h2.port_bytes.values())

    def test_sequential_order(self, net):
        sim, h1, h2 = net
        arrivals = []
        h2.on_delivery(lambda pkt: arrivals.append(pkt.flow.dst_port))
        src = PortScanSource(h1, "10.0.0.2", range(8000, 8010), interval=0.02)
        src.launch()
        sim.run(1.0)
        assert arrivals == sorted(arrivals)

    def test_validation(self, net):
        _sim, h1, _h2 = net
        with pytest.raises(ValueError):
            PortScanSource(h1, "10.0.0.2", range(0))


class TestFlowMix:
    def test_heavy_flow_dominates(self, net):
        sim, h1, h2 = net
        mix = FlowMixWorkload(h1, "10.0.0.2", link_capacity_pps=250,
                              num_flows=8, heavy_fraction=0.3, seed=3)
        mix.launch()
        sim.run(4.0)
        mix.halt()
        assert len(mix.heavy_flows) == 1
        heavy = mix.heavy_flows[0]
        per_port = h2.port_bytes
        heavy_bytes = per_port.get(heavy.dst_port, 0)
        others = [v for port, v in per_port.items() if port != heavy.dst_port]
        assert heavy_bytes > 3 * max(others, default=0)

    def test_heavy_rate_targets_fraction(self, net):
        _sim, h1, _h2 = net
        mix = FlowMixWorkload(h1, "10.0.0.2", link_capacity_pps=200,
                              heavy_fraction=0.4)
        heavy_spec = mix.specs[0]
        assert heavy_spec.rate_pps == pytest.approx(80.0)

    def test_validation(self, net):
        _sim, h1, _h2 = net
        with pytest.raises(ValueError):
            FlowMixWorkload(h1, "10.0.0.2", 100, heavy_fraction=1.5)
        with pytest.raises(ValueError):
            FlowMixWorkload(h1, "10.0.0.2", 100, num_flows=2, num_heavy=3)


class TestHaltRelaunch:
    def test_relaunch_emits_at_exactly_configured_rate(self, net):
        """Regression: the pre-halt emission chain used to survive a
        halt() + launch() cycle — two chains then drove the source at
        double its configured rate.  The generation token retires the
        stale chain, so a relaunched source emits at exactly rate_pps."""
        sim, h1, _h2 = net
        src = ConstantRateSource(h1, "10.0.0.2", 80, rate_pps=100)
        src.launch()
        sim.run(0.5)
        src.halt()
        sim.run(1.0)
        before = src.packets_emitted
        src.launch()
        sim.run(3.0)  # exactly 2.0 s of relaunched run
        emitted = src.packets_emitted - before
        assert emitted == pytest.approx(200, abs=3)

    def test_repeated_cycles_do_not_accumulate_chains(self, net):
        sim, h1, _h2 = net
        src = ConstantRateSource(h1, "10.0.0.2", 80, rate_pps=50)
        now = 0.0
        for _cycle in range(4):
            src.launch()
            now += 0.25
            sim.run(now)
            src.halt()
        before = src.packets_emitted
        src.launch()
        sim.run(now + 2.0)
        # One live chain: 2 s at 50 pps, not 5 chains' worth.
        assert src.packets_emitted - before == pytest.approx(100, abs=3)

    def test_onoff_source_relaunch_keeps_duty_cycle(self, net):
        sim, h1, _h2 = net
        src = OnOffSource(h1, "10.0.0.2", 80, rate_pps=100,
                          on_duration=0.5, off_duration=0.5)
        src.launch()
        sim.run(0.3)
        src.halt()
        before = src.packets_emitted
        src.launch()
        sim.run(4.3)  # 4 more seconds: ~2.0 s of ON time at 100 pps
        emitted = src.packets_emitted - before
        assert emitted <= 2.0 * 100 + 10
