"""Tests for acoustic device liveness monitoring: per-device heartbeat
chirpers feeding the controller's channel-health monitor, where a
device is down once its state is ``ChannelHealth.DEAD``."""

import pytest

from repro.core import ChannelHealth, ChannelHealthMonitor
from repro.core.apps import HeartbeatChirper, build_liveness_mesh
from repro.experiments.rigs import build_testbed


@pytest.fixture
def mesh():
    testbed = build_testbed("rhombus")
    chirpers, monitor = build_liveness_mesh(testbed.controller,
                                            testbed.agents, testbed.plan)
    testbed.controller.start()
    return testbed, chirpers, monitor


def devices_down(monitor):
    return sorted(device for device, state in monitor.states().items()
                  if state is ChannelHealth.DEAD)


def dead_transitions(monitor, device):
    return [t for t in monitor.transitions
            if t.emitter == device and t.state is ChannelHealth.DEAD]


class TestValidation:
    def test_needs_devices(self):
        testbed = build_testbed("single")
        with pytest.raises(ValueError):
            build_liveness_mesh(testbed.controller, {}, testbed.plan)

    def test_unique_frequencies_required(self):
        testbed = build_testbed("single")
        with pytest.raises(ValueError, match="unique"):
            ChannelHealthMonitor(testbed.controller,
                                 {"a": 500.0, "b": 500.0}, period=1.0)

    def test_miss_threshold(self):
        testbed = build_testbed("single")
        with pytest.raises(ValueError):
            build_liveness_mesh(testbed.controller, testbed.agents,
                                testbed.plan, miss_threshold=0)

    def test_chirper_phase_validation(self):
        testbed = build_testbed("single")
        with pytest.raises(ValueError, match="phase"):
            HeartbeatChirper(testbed.sim, testbed.agents["s1"], 500.0,
                             period=1.0, phase=1.5)


class TestLiveness:
    def test_all_devices_alive(self, mesh):
        """Every device heard on its grid: no DEAD (a never-heard device
        reads DEAD once its start-up grace passes) and no DEGRADED."""
        testbed, _chirpers, monitor = mesh
        testbed.sim.run(6.0)
        assert devices_down(monitor) == []
        assert monitor.transitions == []

    def test_dead_device_detected(self):
        testbed = build_testbed("rhombus")
        chirpers, monitor = build_liveness_mesh(testbed.controller,
                                                testbed.agents, testbed.plan)
        heard = []
        testbed.controller.watch([chirpers["s_top"].frequency],
                                 on_detection=lambda e: heard.append(e.time))
        testbed.controller.start()
        testbed.sim.run(4.0)
        chirpers["s_top"].kill()
        testbed.sim.run(10.0)
        assert devices_down(monitor) == ["s_top"]
        dead = monitor.transitions[-1]
        assert dead.emitter == "s_top"
        assert dead.state is ChannelHealth.DEAD
        assert dead.time - heard[-1] >= 2 * monitor.period

    def test_detection_latency_bounded(self, mesh):
        """DEAD within dead_misses + 1 periods of the death."""
        testbed, chirpers, monitor = mesh
        testbed.sim.run(4.0)
        chirpers["s_in"].kill()
        death = testbed.sim.now
        testbed.sim.run(12.0)
        dead = dead_transitions(monitor, "s_in")[0]
        bound = (monitor.dead_misses + 1) * monitor.period + 0.5
        assert dead.time - death < bound

    def test_revived_device_clears(self, mesh):
        testbed, chirpers, monitor = mesh
        testbed.sim.run(4.0)
        chirpers["s_bottom"].kill()
        testbed.sim.run(10.0)
        assert monitor.state_of("s_bottom") is ChannelHealth.DEAD
        chirpers["s_bottom"].revive()
        testbed.sim.run(14.0)
        assert monitor.state_of("s_bottom") is not ChannelHealth.DEAD
        # The historical DEAD transition is retained.
        assert dead_transitions(monitor, "s_bottom")

    def test_multiple_simultaneous_deaths(self, mesh):
        testbed, chirpers, monitor = mesh
        testbed.sim.run(4.0)
        chirpers["s_top"].kill()
        chirpers["s_out"].kill()
        testbed.sim.run(11.0)
        assert devices_down(monitor) == ["s_out", "s_top"]

    def test_beats_staggered(self, mesh):
        """The mesh staggers device phases so beats land in different
        capture windows."""
        _testbed, chirpers, _monitor = mesh
        starts = sorted(
            chirper._timer._event[0] if chirper._timer._event else 0.0
            for chirper in chirpers.values()
        )
        gaps = [second - first for first, second in zip(starts, starts[1:])]
        assert all(gap > 0.2 for gap in gaps)
