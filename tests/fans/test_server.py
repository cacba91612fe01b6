"""Unit tests for the server chassis model."""

import numpy as np
import pytest

from repro.audio import AcousticChannel, Position, SpectrumAnalyzer
from repro.fans import FanModel, Server, default_fan_bank


class TestFanBank:
    def test_count_and_speeds_differ(self):
        fans = default_fan_bank(num_fans=4, base_rpm=9000)
        assert len(fans) == 4
        assert len({fan.rpm for fan in fans}) == 4

    def test_requires_fans(self):
        with pytest.raises(ValueError):
            default_fan_bank(num_fans=0)


class TestServer:
    def test_render_mixes_fans(self):
        loud = Server("s", fans=default_fan_bank(4, seed=1))
        quiet = Server("q", fans=default_fan_bank(1, seed=1))
        assert loud.render(1.0).rms() > quiet.render(1.0).rms()

    def test_fail_fan_validation(self):
        server = Server("s")
        with pytest.raises(IndexError):
            server.fail_fan(99, 1.0)
        with pytest.raises(ValueError):
            server.fail_fan(0, -1.0)

    def test_is_failed(self):
        server = Server("s")
        assert not server.is_failed(0)
        server.fail_fan(0, 2.0)
        assert server.is_failed(0)
        assert not server.is_failed(1)

    def test_fail_all(self):
        server = Server("s")
        server.fail_all(3.0)
        assert all(server.is_failed(i) for i in range(len(server.fans)))

    def test_single_fan_failure_preserves_others(self):
        server = Server("s")
        server.fail_fan(0, 1.0)
        audio = server.render(5.0)
        late = audio.slice_time(3.5, 4.5)
        spectrum = SpectrumAnalyzer().analyze(late)
        # Fan 1 (not failed) still shows its blade-pass line.
        alive = server.fans[1].blade_pass_hz
        dead = server.fans[0].blade_pass_hz
        assert spectrum.level_at(alive) > spectrum.level_at(dead) + 8

    def test_failure_after_attach_rejected(self):
        server = Server("s")
        channel = AcousticChannel()
        server.attach_to_channel(channel, 2.0)
        with pytest.raises(RuntimeError, match="attach"):
            server.fail_fan(0, 1.0)

    def test_attached_audio_does_not_loop(self):
        server = Server("s")
        channel = AcousticChannel()
        server.attach_to_channel(channel, 1.0)
        inside = channel.render_at(Position(0.3, 0, 0), 0.2, 0.6)
        beyond = channel.render_at(Position(0.3, 0, 0), 2.0, 2.4)
        assert inside.rms() > 0
        assert beyond.rms() == 0.0


class TestLeadIn:
    def test_lead_in_preserves_t0_samples(self):
        """The pre-roll prepends hum without re-rolling the t >= 0
        realization, so failure timing and line levels are untouched."""
        fan = FanModel(seed=5)
        plain = fan.render(1.0, stop_time=0.5)
        led = fan.render(1.0, stop_time=0.5, lead_in=0.1)
        lead_count = len(led) - len(plain)
        assert lead_count == 1600
        np.testing.assert_array_equal(led.samples[lead_count:], plain.samples)
        assert np.any(led.samples[:lead_count])

    def test_never_ran_fan_lead_is_silent(self):
        fan = FanModel(seed=5)
        led = fan.render(1.0, stop_time=0.0, lead_in=0.1)
        assert not np.any(led.samples)

    def test_attach_pre_rolls_past_propagation_delay(self):
        """With delay modelling on, a server's hum is already arriving
        when capture begins — the pre-roll absorbs the speed-of-sound
        flight time so there is no onset transient at t = 0."""
        channel = AcousticChannel(enable_propagation_delay=True)
        server = Server("s", position=Position(17.15, 0, 0))  # 50 ms away
        server.attach_to_channel(channel, 1.0)
        onset = channel.render_at(Position(), 0.0, 0.04)
        assert onset.rms() > 0
