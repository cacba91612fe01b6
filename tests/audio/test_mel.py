"""Unit tests for mel-scale analysis."""

import numpy as np
import pytest

from repro.audio import (
    AudioSignal,
    dominant_mel_track,
    hz_to_mel,
    mel_filterbank,
    mel_spectrogram,
    mel_to_hz,
    sine_tone,
)
from tests.audio.signals import linear_sweep


class TestMelConversion:
    def test_known_point(self):
        # 1000 Hz is ~999.99 mel in the HTK formula (near-identity there).
        assert hz_to_mel(1000.0) == pytest.approx(999.99, abs=0.1)

    def test_roundtrip(self):
        for freq in (50.0, 440.0, 1000.0, 4000.0, 8000.0):
            assert mel_to_hz(hz_to_mel(freq)) == pytest.approx(freq, rel=1e-9)

    def test_monotonic(self):
        freqs = np.linspace(10, 8000, 100)
        mels = hz_to_mel(freqs)
        assert np.all(np.diff(mels) > 0)

    def test_compresses_high_frequencies(self):
        """Equal Hz steps shrink in mel at high frequency — the 'log
        line' effect on the port scan spectrogram."""
        low_step = hz_to_mel(600.0) - hz_to_mel(500.0)
        high_step = hz_to_mel(4100.0) - hz_to_mel(4000.0)
        assert high_step < low_step


class TestFilterbank:
    def test_shape(self):
        freqs = np.linspace(0, 8000, 257)
        bank = mel_filterbank(40, freqs)
        assert bank.shape == (40, 257)

    def test_nonnegative_and_bounded(self):
        freqs = np.linspace(0, 8000, 257)
        bank = mel_filterbank(40, freqs)
        assert np.all(bank >= 0)
        assert np.all(bank <= 1.0 + 1e-9)

    def test_every_filter_has_support(self):
        freqs = np.linspace(0, 8000, 513)
        bank = mel_filterbank(30, freqs)
        assert np.all(bank.sum(axis=1) > 0)

    def test_validation(self):
        freqs = np.linspace(0, 8000, 100)
        with pytest.raises(ValueError):
            mel_filterbank(0, freqs)
        with pytest.raises(ValueError):
            mel_filterbank(10, freqs, low_hz=5000, high_hz=1000)

    def test_empty_frequencies(self):
        bank = mel_filterbank(10, np.zeros(0))
        assert bank.shape == (10, 0)


class TestMelSpectrogram:
    def test_shapes(self):
        tone = sine_tone(1000, 1.0)
        times, centers, mags = mel_spectrogram(tone, num_filters=32,
                                               frame_duration=0.1)
        assert len(times) == 10
        assert len(centers) == 32
        assert mags.shape == (10, 32)

    def test_tone_lights_correct_band(self):
        tone = sine_tone(2000, 0.5, level_db=70.0)
        times, centers, mags = mel_spectrogram(tone, num_filters=64,
                                               frame_duration=0.1)
        strongest = centers[np.argmax(mags[2])]
        assert strongest == pytest.approx(2000, rel=0.1)

    def test_empty_signal(self):
        times, centers, mags = mel_spectrogram(AudioSignal(np.zeros(0)))
        assert len(times) == 0

    def test_short_signal_shapes_are_consistent(self):
        """A signal shorter than one frame flows through without
        crashing and keeps the band axis: centres ``(M,)``, mags
        ``(0, M)`` (regression for the empty-spectrogram shape bug)."""
        short = sine_tone(1000, 0.01)
        times, centers, mags = mel_spectrogram(
            short, num_filters=32, frame_duration=0.05
        )
        assert len(times) == 0
        assert len(centers) == 32
        assert np.all(np.diff(centers) > 0)
        assert mags.shape == (0, 32)

    def test_empty_signal_shapes_are_consistent(self):
        times, centers, mags = mel_spectrogram(
            AudioSignal(np.zeros(0)), num_filters=16
        )
        assert len(times) == 0
        assert len(centers) == 16
        assert mags.shape == (0, 16)


class TestDominantTrack:
    def test_chirp_track_is_monotonic(self):
        sweep = linear_sweep(500, 4000, 2.0, level_db=70.0)
        times, centers, mags = mel_spectrogram(sweep, num_filters=64,
                                               frame_duration=0.1)
        track = dominant_mel_track(times, centers, mags)
        # Allow equal neighbours (band quantization) but require overall rise.
        assert np.all(np.diff(track) >= -1e-9)
        assert track[-1] > track[0] * 3

    def test_empty(self):
        assert len(dominant_mel_track(np.zeros(0), np.zeros(0),
                                      np.zeros((0, 0)))) == 0
