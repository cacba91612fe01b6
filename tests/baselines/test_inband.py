"""Unit tests for the in-band management baseline and its acoustic
counterpart (the liveness app's heartbeat chirper)."""

import pytest

from repro.audio import AcousticChannel, Microphone, Position, Speaker
from repro.baselines import HeartbeatMonitor, HeartbeatSender
from repro.core import MDNController
from repro.core.agent import MusicAgent
from repro.core.apps import HeartbeatChirper
from repro.net import ConstantRateSource, Simulator, linear_topology


def build_inband(bandwidth=2_000_000.0):
    sim = Simulator()
    topo = linear_topology(sim, num_switches=2, bandwidth_bps=bandwidth)
    sender = HeartbeatSender(topo.hosts["h1"], "10.0.0.2", period=0.5)
    monitor = HeartbeatMonitor(topo.hosts["h2"], sender)
    return sim, topo, sender, monitor


class TestHeartbeatDelivery:
    def test_healthy_network_delivers_everything(self):
        sim, _topo, sender, monitor = build_inband()
        sim.run(10.0)
        sender.stop()
        sim.run(10.5)  # let the final beat land
        stats = monitor.stats(sim)
        assert stats.delivery_rate == 1.0
        assert stats.lost == 0
        assert stats.max_gap < 1.0

    def test_link_failure_cuts_heartbeats(self):
        """The §1 motivation: a data-plane failure silences in-band
        management."""
        sim, topo, sender, monitor = build_inband()
        sim.run(5.0)
        topo.links[1].fail()  # s1 - s2 link
        sim.run(15.0)
        stats = monitor.stats(sim)
        assert stats.lost > 0
        assert stats.max_gap >= 9.0

    def test_congestion_delays_heartbeats(self):
        sim, topo, sender, monitor = build_inband(bandwidth=500_000.0)
        # Cross traffic saturating the path: 500 kb/s = 62.5 pps service.
        cross = ConstantRateSource(topo.hosts["h1"], "10.0.0.2", 9999,
                                   rate_pps=200)
        cross.launch()
        sim.run(10.0)
        stats = monitor.stats(sim)
        # Heartbeats queue behind data traffic: latency far above the
        # uncongested sub-millisecond baseline (or drops appear).
        assert stats.mean_latency > 0.05 or stats.lost > 0

    def test_sender_stop(self):
        sim, _topo, sender, monitor = build_inband()
        sim.run(2.0)
        sender.stop()
        count = len(sender.sent_log)
        sim.run(5.0)
        assert len(sender.sent_log) == count

    def test_validation(self):
        sim, topo, _s, _m = build_inband()
        with pytest.raises(ValueError):
            HeartbeatSender(topo.hosts["h1"], "10.0.0.2", period=0)


class TestAcousticHeartbeat:
    def test_delivery_independent_of_data_plane(self):
        """XBASE3's punchline: cut every link; the tones keep arriving."""
        sim = Simulator()
        topo = linear_topology(sim, num_switches=2)
        channel = AcousticChannel()
        agent = MusicAgent(sim, channel, Speaker(Position(0.5, 0, 0)))
        controller = MDNController(sim, channel, Microphone(Position()),
                                   listen_interval=0.1)
        heartbeat = HeartbeatChirper(sim, agent, frequency=1500.0, period=0.5)
        heard = []
        controller.watch([1500.0], on_onset=lambda e: heard.append(e.time))
        controller.start()
        sim.run(3.0)
        for link in topo.links:
            link.fail()
        sim.run(10.0)
        assert len(heard) / heartbeat.beats_emitted > 0.9

    def test_validation(self):
        sim = Simulator()
        agent = MusicAgent(sim, AcousticChannel(), Speaker())
        with pytest.raises(ValueError):
            HeartbeatChirper(sim, agent, 1000.0, period=0)

    def test_stop(self):
        sim = Simulator()
        agent = MusicAgent(sim, AcousticChannel(), Speaker())
        heartbeat = HeartbeatChirper(sim, agent, 1000.0, period=0.5)
        sim.run(2.0)
        heartbeat.stop()
        emitted = heartbeat.beats_emitted
        assert emitted > 0
        sim.run(5.0)
        assert heartbeat.beats_emitted == emitted
