"""Application tests for the fan failure watchdog (§7)."""

import numpy as np
import pytest

from repro.core.apps import FanWatchdog
from repro.fans import Server, datacenter_scene, office_scene


class TestValidation:
    def test_bad_parameters(self):
        scene = office_scene(duration=2.0)
        with pytest.raises(ValueError):
            FanWatchdog(scene.channel, scene.microphone, baseline_samples=1)
        with pytest.raises(ValueError):
            FanWatchdog(scene.channel, scene.microphone,
                        sample_duration=0.5, period=0.2)


def run_watchdog(scene, duration, **kwargs):
    watchdog = FanWatchdog(scene.channel, scene.microphone, **kwargs)
    watchdog.run(0.0, duration)
    return watchdog


class TestOfficeDetection:
    def test_failure_detected(self):
        server = Server("target")
        server.fail_all(5.0)
        scene = office_scene(duration=10.0, server=server)
        watchdog = run_watchdog(scene, 10.0)
        assert watchdog.failure_detected
        # Spin-down takes ~1.5 s; alert within 3 s of the failure.
        assert 5.0 <= watchdog.detection_time() <= 8.0

    def test_healthy_fan_no_alert(self):
        scene = office_scene(duration=8.0)
        watchdog = run_watchdog(scene, 8.0)
        assert not watchdog.failure_detected

    def test_scores_jump_on_failure(self):
        """The Figure 7 shape: on-vs-on scores sit near the baseline;
        on-vs-off scores are much larger."""
        server = Server("target")
        server.fail_all(5.0)
        scene = office_scene(duration=10.0, server=server)
        watchdog = run_watchdog(scene, 10.0)
        healthy = watchdog.scores.window(2.0, 4.5)
        failed = watchdog.scores.window(7.5, 10.0)
        assert failed.min() > 3 * healthy.max()


class TestDatacenterDetection:
    def test_failure_detected_despite_ambience(self):
        """The paper's open question, answered positively: a close
        microphone detects one server's failure through datacenter
        noise and neighbouring racks."""
        server = Server("target")
        server.fail_all(5.0)
        scene = datacenter_scene(duration=10.0, server=server)
        watchdog = run_watchdog(scene, 10.0)
        assert watchdog.failure_detected
        assert watchdog.detection_time() >= 5.0

    def test_healthy_no_alert_in_datacenter(self):
        scene = datacenter_scene(duration=8.0)
        watchdog = run_watchdog(scene, 8.0)
        assert not watchdog.failure_detected

    def test_single_fan_failure_detected(self):
        """Losing one of four fans is subtler but still visible."""
        server = Server("target")
        server.fail_fan(0, 5.0)
        scene = datacenter_scene(duration=10.0, server=server)
        watchdog = run_watchdog(scene, 10.0, threshold_factor=2.0)
        assert watchdog.failure_detected

    def test_band_limited_comparison(self):
        server = Server("target")
        server.fail_all(5.0)
        scene = datacenter_scene(duration=10.0, server=server)
        low, high = 800.0, 6000.0
        watchdog = run_watchdog(scene, 10.0, band_hz=(low, high))
        assert watchdog.failure_detected


class TestBaselinePhase:
    def test_no_scores_during_baseline(self):
        scene = office_scene(duration=6.0)
        watchdog = FanWatchdog(scene.channel, scene.microphone,
                               baseline_samples=4, period=0.5)
        results = [watchdog.observe(t * 0.5) for t in range(4)]
        assert results == [None, None, None, None]
        assert watchdog.observe(2.0) is not None

    def test_threshold_nan_until_baseline_done(self):
        scene = office_scene(duration=4.0)
        watchdog = FanWatchdog(scene.channel, scene.microphone)
        assert np.isnan(watchdog.threshold)

    def test_empty_band_rejected(self):
        scene = office_scene(duration=4.0)
        watchdog = FanWatchdog(scene.channel, scene.microphone,
                               band_hz=(7999.9, 7999.95))
        with pytest.raises(ValueError, match="band"):
            watchdog.observe(0.0)
