"""Unit tests for the single-bin Goertzel magnitude."""

import numpy as np
import pytest

from repro.audio import (
    AudioSignal,
    SpectrumAnalyzer,
    goertzel_magnitude,
    sine_tone,
)


class TestGoertzelMagnitude:
    def test_matches_fft_calibration(self):
        """Goertzel and the FFT analyzer agree on a tone's level."""
        tone = sine_tone(1000, 0.1, level_db=60.0)
        fft_level = SpectrumAnalyzer().analyze(tone).level_at(1000)
        from repro.audio import amplitude_to_db
        goertzel_level = amplitude_to_db(goertzel_magnitude(tone, 1000))
        assert goertzel_level == pytest.approx(fft_level, abs=0.1)

    def test_off_tone_magnitude_is_small(self):
        tone = sine_tone(1000, 0.1, level_db=60.0)
        on = goertzel_magnitude(tone, 1000)
        off = goertzel_magnitude(tone, 2000)
        assert on > 1000 * off

    def test_empty_signal(self):
        assert goertzel_magnitude(AudioSignal(np.zeros(0)), 440) == 0.0

    def test_dc_bin_not_inflated(self):
        """Regression: the one-sided x-sqrt(2) correction must not apply
        at DC — a constant offset of RMS r reports r, matching the FFT
        analyzer bin for bin."""
        offset = AudioSignal(np.full(1600, 0.5))
        goertzel_mag = goertzel_magnitude(offset, 0.0)
        fft_mag = SpectrumAnalyzer().analyze(offset).magnitude_at(0.0)
        assert goertzel_mag == pytest.approx(0.5, abs=1e-9)
        assert goertzel_mag == pytest.approx(fft_mag, abs=1e-9)

    def test_nyquist_bin_not_inflated(self):
        """Regression: same for the Nyquist bin (k = N/2), which also
        has no mirrored negative-frequency bin."""
        nyquist_tone = AudioSignal(0.25 * np.cos(np.pi * np.arange(1600)))
        nyquist_hz = nyquist_tone.sample_rate / 2.0
        goertzel_mag = goertzel_magnitude(nyquist_tone, nyquist_hz)
        fft_mag = SpectrumAnalyzer().analyze(nyquist_tone).magnitude_at(nyquist_hz)
        assert goertzel_mag == pytest.approx(nyquist_tone.rms(), abs=1e-9)
        assert goertzel_mag == pytest.approx(fft_mag, abs=1e-9)

    def test_rejects_out_of_range_frequency(self):
        tone = sine_tone(1000, 0.05)
        with pytest.raises(ValueError):
            goertzel_magnitude(tone, -1.0)
        with pytest.raises(ValueError):
            goertzel_magnitude(tone, 9000.0)

