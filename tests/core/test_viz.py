"""Tests for the terminal visualization helpers."""

import numpy as np

from repro.viz import RAMP, sparkline, spectrogram_heatmap


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_length_capped(self):
        line = sparkline(range(1000), width=40)
        assert len(line) <= 41

    def test_monotone_values_monotone_glyphs(self):
        line = sparkline([0, 25, 50, 75, 100])
        indices = [RAMP.index(char) for char in line]
        assert indices == sorted(indices)

    def test_all_zero(self):
        assert set(sparkline([0, 0, 0])) == {RAMP[0]}

    def test_peak_pins_scale(self):
        half = sparkline([50], peak=100)
        full = sparkline([50], peak=50)
        assert RAMP.index(half) < RAMP.index(full)


class TestSpectrogramHeatmap:
    def test_empty(self):
        assert "empty" in spectrogram_heatmap(
            np.zeros(0), np.zeros(0), np.zeros((0, 0))
        )

    def test_tone_renders_bright_row(self):
        from repro.audio import mel_spectrogram, sine_tone

        tone = sine_tone(2000, 1.0, level_db=70.0)
        times, centers, mags = mel_spectrogram(tone, num_filters=32,
                                               frame_duration=0.1)
        art = spectrogram_heatmap(times, centers, mags, height=10)
        lines = art.splitlines()
        # Exactly the rows nearest 2 kHz should be bright.
        bright = [line for line in lines if "@" in line]
        assert bright
        assert all("Hz" in line for line in bright)

    def test_shape_fits_requested_grid(self):
        times = np.linspace(0, 1, 100)
        freqs = np.linspace(100, 4000, 50)
        mags = np.random.default_rng(1).random((100, 50))
        art = spectrogram_heatmap(times, freqs, mags, height=8, width=40)
        data_lines = [line for line in art.splitlines() if "Hz" in line]
        assert len(data_lines) == 8
