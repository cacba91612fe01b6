"""Unit tests for the AudioSignal container and dB calibration."""

import math

import numpy as np
import pytest

from repro.audio import (
    DEFAULT_SAMPLE_RATE,
    FULL_SCALE_DB,
    SILENCE_DB,
    AudioSignal,
    amplitude_to_db,
    db_to_amplitude,
)


class TestDbConversion:
    def test_full_scale_maps_to_unit_amplitude(self):
        assert db_to_amplitude(FULL_SCALE_DB) == pytest.approx(1.0)

    def test_each_20db_is_a_factor_of_ten(self):
        assert db_to_amplitude(FULL_SCALE_DB - 20) == pytest.approx(0.1)
        assert db_to_amplitude(FULL_SCALE_DB + 20) == pytest.approx(10.0)

    def test_roundtrip(self):
        for level in (-10.0, 0.0, 30.0, 60.0, 94.0, 120.0):
            assert amplitude_to_db(db_to_amplitude(level)) == pytest.approx(level)

    def test_zero_amplitude_is_silence_floor(self):
        assert amplitude_to_db(0.0) == SILENCE_DB
        assert amplitude_to_db(-1.0) == SILENCE_DB


class TestConstruction:
    def test_samples_coerced_to_float64(self):
        signal = AudioSignal(np.array([1, 2, 3], dtype=np.int16))
        assert signal.samples.dtype == np.float64

    def test_rejects_2d_samples(self):
        with pytest.raises(ValueError, match="1-D"):
            AudioSignal(np.zeros((2, 3)))

    def test_rejects_bad_sample_rate(self):
        with pytest.raises(ValueError, match="sample_rate"):
            AudioSignal(np.zeros(4), sample_rate=0)

    def test_silence_has_correct_length_and_level(self):
        signal = AudioSignal.silence(0.5)
        assert len(signal) == DEFAULT_SAMPLE_RATE // 2
        assert signal.rms() == 0.0
        assert signal.level_db() == SILENCE_DB

    def test_silence_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            AudioSignal.silence(-0.1)

    def test_empty_from_components(self):
        signal = AudioSignal.from_components([])
        assert len(signal) == 0

    def test_from_components_pads_shorter(self):
        a = AudioSignal(np.ones(10))
        b = AudioSignal(np.ones(4))
        mixed = AudioSignal.from_components([a, b])
        assert len(mixed) == 10
        assert mixed.samples[0] == 2.0
        assert mixed.samples[9] == 1.0

    def test_from_components_rejects_rate_mismatch(self):
        a = AudioSignal(np.ones(10), sample_rate=8000)
        with pytest.raises(ValueError, match="sample rate"):
            AudioSignal.from_components([a], sample_rate=16000)


class TestIntrospection:
    def test_duration(self):
        signal = AudioSignal(np.zeros(DEFAULT_SAMPLE_RATE))
        assert signal.duration == pytest.approx(1.0)

    def test_rms_of_constant(self):
        signal = AudioSignal(np.full(100, 0.5))
        assert signal.rms() == pytest.approx(0.5)

    def test_rms_of_sine(self):
        t = np.arange(16000) / 16000
        signal = AudioSignal(np.sin(2 * np.pi * 100 * t))
        assert signal.rms() == pytest.approx(1 / math.sqrt(2), rel=1e-3)

    def test_peak(self):
        signal = AudioSignal(np.array([0.1, -0.7, 0.3]))
        assert signal.peak() == pytest.approx(0.7)

    def test_empty_signal_stats(self):
        signal = AudioSignal(np.zeros(0))
        assert signal.rms() == 0.0
        assert signal.peak() == 0.0


class TestTransformations:
    def test_mix_is_commutative(self):
        a = AudioSignal(np.array([1.0, 2.0]))
        b = AudioSignal(np.array([3.0, 4.0, 5.0]))
        np.testing.assert_allclose(a.mix(b).samples, b.mix(a).samples)

    def test_scale(self):
        signal = AudioSignal(np.ones(4)).scale(0.25)
        assert signal.rms() == pytest.approx(0.25)

    def test_attenuate_db(self):
        signal = AudioSignal(np.ones(4)).attenuate_db(20.0)
        assert signal.rms() == pytest.approx(0.1)

    def test_slice_time(self):
        signal = AudioSignal(np.arange(16000, dtype=float))
        part = signal.slice_time(0.25, 0.5)
        assert len(part) == 4000
        assert part.samples[0] == 4000

    def test_slice_time_clamps(self):
        signal = AudioSignal(np.arange(100, dtype=float))
        part = signal.slice_time(0.0, 10.0)
        assert len(part) == 100

    def test_slice_outside_is_empty(self):
        signal = AudioSignal(np.arange(100, dtype=float))
        assert len(signal.slice_time(10.0, 11.0)) == 0

    def test_slice_rejects_reversed_bounds(self):
        signal = AudioSignal(np.zeros(10))
        with pytest.raises(ValueError):
            signal.slice_time(0.5, 0.1)


class TestFrames:
    def test_non_overlapping_frames(self):
        signal = AudioSignal(np.arange(16000, dtype=float))
        starts, frames = signal.frame_matrix(0.25)
        assert frames.shape == (4, 4000)
        assert starts.tolist() == pytest.approx([0.0, 0.25, 0.5, 0.75])
        assert frames[1, 0] == 4000.0

    def test_partial_trailing_frame_dropped(self):
        signal = AudioSignal(np.zeros(15000))
        starts, frames = signal.frame_matrix(0.25)
        assert len(starts) == len(frames) == 3

    def test_overlapping_frames(self):
        signal = AudioSignal(np.zeros(16000))
        starts, frames = signal.frame_matrix(0.5, hop_duration=0.25)
        assert len(starts) == len(frames) == 3

    def test_invalid_frame_params(self):
        signal = AudioSignal(np.zeros(100))
        with pytest.raises(ValueError):
            signal.frame_matrix(0.0)
        with pytest.raises(ValueError):
            signal.frame_matrix(0.1, hop_duration=0.0)
