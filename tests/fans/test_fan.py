"""Unit tests for the rotor acoustic model."""

import numpy as np
import pytest

from repro.audio import SpectrumAnalyzer
from repro.fans import FanModel


class TestGeometry:
    def test_blade_pass_frequency(self):
        fan = FanModel(rpm=9000, num_blades=7)
        assert fan.blade_pass_hz == pytest.approx(1050.0)
        assert fan.shaft_hz == pytest.approx(150.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FanModel(rpm=0)
        with pytest.raises(ValueError):
            FanModel(num_blades=1)


class TestSpectrum:
    def test_blade_pass_line_dominates(self):
        fan = FanModel(rpm=9000, num_blades=7, seed=1)
        audio = fan.render(2.0)
        spectrum = SpectrumAnalyzer().analyze(audio.slice_time(0.5, 1.5))
        line = spectrum.level_at(fan.blade_pass_hz)
        floor = spectrum.noise_floor_db()
        assert line > floor + 15

    def test_harmonics_present(self):
        fan = FanModel(rpm=6000, num_blades=5, seed=2,
                       harmonic_rolloff_db=4.0)
        audio = fan.render(2.0)
        spectrum = SpectrumAnalyzer().analyze(audio.slice_time(0.5, 1.5))
        base = fan.blade_pass_hz  # 500 Hz
        assert spectrum.level_at(2 * base) > spectrum.noise_floor_db() + 10
        assert spectrum.level_at(3 * base) > spectrum.noise_floor_db() + 8

    def test_deterministic_render(self):
        first = FanModel(seed=7).render(1.0)
        second = FanModel(seed=7).render(1.0)
        np.testing.assert_array_equal(first.samples, second.samples)

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            FanModel().render(0.0)


class TestFailure:
    def test_stopped_fan_is_silent_after_spin_down(self):
        fan = FanModel(seed=3)
        audio = fan.render(6.0, stop_time=2.0, spin_down=1.0)
        running = audio.slice_time(0.5, 1.5)
        dead = audio.slice_time(4.5, 5.5)
        assert dead.rms() < running.rms() / 100

    def test_spin_down_is_gradual(self):
        fan = FanModel(seed=3)
        audio = fan.render(5.0, stop_time=2.0, spin_down=1.5)
        before = audio.slice_time(1.5, 2.0).rms()
        during = audio.slice_time(2.2, 2.6).rms()
        after = audio.slice_time(4.0, 4.5).rms()
        assert before > during > after

    def test_never_started(self):
        fan = FanModel(seed=3)
        audio = fan.render(2.0, stop_time=0.0)
        assert audio.rms() < 1e-6

    def test_blade_line_vanishes_on_stop(self):
        fan = FanModel(rpm=9000, num_blades=7, seed=5)
        audio = fan.render(6.0, stop_time=2.0)
        analyzer = SpectrumAnalyzer()
        on = analyzer.analyze(audio.slice_time(0.5, 1.5))
        off = analyzer.analyze(audio.slice_time(4.5, 5.5))
        drop = on.level_at(fan.blade_pass_hz) - off.level_at(fan.blade_pass_hz)
        assert drop > 30
