"""Unit tests for noise generators and the song-noise interferer."""

import numpy as np
import pytest

from repro.audio import (
    SongNoise,
    SpectrumAnalyzer,
    band_noise,
    brown_noise,
    datacenter_ambience,
    hvac_hum,
    office_ambience,
    pink_noise,
    white_noise,
)
from tests.audio.test_fft import peaks


class TestLevels:
    @pytest.mark.parametrize("generator", [white_noise, pink_noise, brown_noise])
    def test_rms_level_calibrated(self, generator, rng):
        signal = generator(1.0, level_db=50.0, rng=rng)
        assert signal.level_db() == pytest.approx(50.0, abs=0.1)

    def test_zero_duration(self, rng):
        assert len(pink_noise(0.0, rng=rng)) == 0
        assert len(brown_noise(0.0, rng=rng)) == 0


class TestSpectralShape:
    def test_pink_noise_falls_with_frequency(self, rng, analyzer):
        signal = pink_noise(2.0, level_db=60.0, rng=rng)
        spectrum = analyzer.analyze(signal)
        low = spectrum.band_power(100, 500)
        high = spectrum.band_power(4000, 6000)
        assert low > high

    def test_brown_noise_falls_faster_than_pink(self, rng):
        analyzer = SpectrumAnalyzer()
        brown = brown_noise(2.0, level_db=60.0, rng=np.random.default_rng(1))
        pink = pink_noise(2.0, level_db=60.0, rng=np.random.default_rng(1))
        brown_ratio = (
            analyzer.analyze(brown).band_power(50, 200)
            / max(analyzer.analyze(brown).band_power(2000, 4000), 1e-18)
        )
        pink_ratio = (
            analyzer.analyze(pink).band_power(50, 200)
            / max(analyzer.analyze(pink).band_power(2000, 4000), 1e-18)
        )
        assert brown_ratio > pink_ratio

    def test_band_noise_confined(self, rng, analyzer):
        signal = band_noise(2.0, 1000, 2000, level_db=60.0, rng=rng)
        spectrum = analyzer.analyze(signal)
        inside = spectrum.band_power(1000, 2000)
        outside = spectrum.band_power(3000, 6000)
        assert inside > 1000 * max(outside, 1e-18)

    def test_band_noise_validation(self, rng):
        with pytest.raises(ValueError):
            band_noise(1.0, 2000, 1000, rng=rng)
        with pytest.raises(ValueError):
            band_noise(1.0, 100, 20000, sample_rate=16000, rng=rng)

    def test_hvac_energy_is_low_frequency(self, rng, analyzer):
        signal = hvac_hum(2.0, level_db=60.0, rng=rng)
        spectrum = analyzer.analyze(signal)
        assert spectrum.band_power(30, 400) > spectrum.band_power(1000, 4000)


class TestSongNoise:
    def test_deterministic_for_same_seed(self):
        first = SongNoise(seed=99).render(2.0)
        second = SongNoise(seed=99).render(2.0)
        np.testing.assert_array_equal(first.samples, second.samples)

    def test_different_seeds_differ(self):
        first = SongNoise(seed=1).render(1.0)
        second = SongNoise(seed=2).render(1.0)
        assert not np.array_equal(first.samples, second.samples)

    def test_level_calibrated(self):
        song = SongNoise(level_db=55.0).render(3.0)
        assert song.level_db() == pytest.approx(55.0, abs=0.1)

    def test_is_tonal(self, analyzer):
        """The song must contain discrete pitch peaks — it is a melody,
        not broadband noise."""
        song = SongNoise(seed=2018).render(2.0)
        spectrum = analyzer.analyze(song)
        assert len(peaks(spectrum, threshold_db=15.0)) >= 3

    def test_nonstationary(self):
        """Energy moves over time: different windows differ in content."""
        song = SongNoise(seed=7).render(4.0)
        analyzer = SpectrumAnalyzer()
        first = analyzer.analyze(song.slice_time(0.0, 0.5)).magnitudes
        later = analyzer.analyze(song.slice_time(2.0, 2.5)).magnitudes
        assert not np.allclose(first, later, rtol=0.1)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            SongNoise().render(0.0)


class TestAmbiencePresets:
    def test_datacenter_louder_than_office(self, rng):
        datacenter = datacenter_ambience(1.0, rng=np.random.default_rng(3))
        office = office_ambience(1.0, rng=np.random.default_rng(3))
        assert datacenter.level_db() > office.level_db() + 20

    def test_levels_calibrated(self):
        ambience = datacenter_ambience(1.0, level_db=80.0,
                                       rng=np.random.default_rng(4))
        assert ambience.level_db() == pytest.approx(80.0, abs=0.1)
