"""Unit tests for the FFT analysis pipeline."""

import numpy as np
import pytest

from repro.audio import (
    AudioSignal,
    SpectrumAnalyzer,
    power_spectrogram,
    sine_tone,
    white_noise,
)


class TestCalibration:
    def test_sine_reports_its_rms_level(self, analyzer):
        for level in (40.0, 60.0, 80.0):
            tone = sine_tone(1000, 0.2, level_db=level)
            spectrum = analyzer.analyze(tone)
            assert spectrum.level_at(1000) == pytest.approx(level, abs=0.5)

    def test_rect_window_calibration(self):
        analyzer = SpectrumAnalyzer(window="rect")
        # Bin-exact frequency: 1000 Hz with a 0.1 s window at 16 kHz.
        tone = sine_tone(1000, 0.1, level_db=60.0, ramp=0.0)
        spectrum = analyzer.analyze(tone)
        assert spectrum.level_at(1000) == pytest.approx(60.0, abs=0.1)

    def test_empty_signal(self, analyzer):
        spectrum = analyzer.analyze(AudioSignal(np.zeros(0)))
        assert len(spectrum.frequencies) == 0
        assert spectrum.magnitude_at(100) == 0.0

    def test_bin_width(self, analyzer):
        tone = sine_tone(500, 0.1)  # 0.1 s window -> 10 Hz resolution
        spectrum = analyzer.analyze(tone)
        # zero_pad_factor=2 halves the bin spacing (interpolation).
        assert spectrum.bin_width == pytest.approx(5.0)


class TestValidation:
    def test_unknown_window(self):
        with pytest.raises(ValueError):
            SpectrumAnalyzer(window="hamming")

    def test_bad_zero_pad(self):
        with pytest.raises(ValueError):
            SpectrumAnalyzer(zero_pad_factor=0)


class TestNoiseFloor:
    def test_floor_tracks_noise_level(self, rng):
        analyzer = SpectrumAnalyzer()
        quiet = white_noise(0.5, level_db=30.0, rng=np.random.default_rng(1))
        loud = white_noise(0.5, level_db=60.0, rng=np.random.default_rng(1))
        assert (
            analyzer.analyze(loud).noise_floor_db()
            > analyzer.analyze(quiet).noise_floor_db() + 25
        )

    def test_floor_robust_to_tones(self, rng):
        """A strong tone must barely move the median-based floor."""
        analyzer = SpectrumAnalyzer()
        noise = white_noise(0.5, level_db=40.0, rng=np.random.default_rng(2))
        with_tone = noise.mix(sine_tone(1000, 0.5, level_db=80.0))
        clean_floor = analyzer.analyze(noise).noise_floor_db()
        tone_floor = analyzer.analyze(with_tone).noise_floor_db()
        assert abs(tone_floor - clean_floor) < 3.0


class TestPeaks:
    def test_single_peak_found(self, analyzer):
        tone = sine_tone(1234, 0.2, level_db=70.0)
        peaks = analyzer.find_peaks(analyzer.analyze(tone), 10.0)
        assert peaks[0].frequency == pytest.approx(1234, abs=1.0)

    def test_parabolic_interpolation_beats_bin_centers(self):
        """Off-bin frequency estimated better than half a bin width."""
        analyzer = SpectrumAnalyzer()  # 10 Hz bins at 0.1 s / 16 kHz
        tone = sine_tone(1003.0, 0.1, level_db=70.0)
        peaks = analyzer.find_peaks(analyzer.analyze(tone), 10.0)
        assert peaks[0].frequency == pytest.approx(1003.0, abs=3.0)

    def test_multiple_tones_sorted_by_magnitude(self, analyzer):
        mix = AudioSignal.from_components([
            sine_tone(800, 0.2, level_db=60.0),
            sine_tone(2000, 0.2, level_db=75.0),
        ])
        peaks = analyzer.find_peaks(analyzer.analyze(mix), 10.0, max_peaks=2)
        assert peaks[0].frequency == pytest.approx(2000, abs=2)
        assert peaks[1].frequency == pytest.approx(800, abs=2)

    def test_frequency_range_filter(self, analyzer):
        mix = AudioSignal.from_components([
            sine_tone(800, 0.2, level_db=70.0),
            sine_tone(2000, 0.2, level_db=70.0),
        ])
        peaks = analyzer.find_peaks(
            analyzer.analyze(mix), 10.0, min_frequency=1500, max_frequency=2500
        )
        assert all(1500 <= peak.frequency <= 2500 for peak in peaks)

    def test_noisy_tone_detected(self, rng, analyzer):
        mix = sine_tone(1500, 0.2, level_db=65.0).mix(
            white_noise(0.2, level_db=45.0, rng=rng)
        )
        peaks = analyzer.find_peaks(analyzer.analyze(mix), 10.0)
        assert any(abs(p.frequency - 1500) < 5 for p in peaks)

    def test_silence_yields_no_peaks(self, analyzer):
        spectrum = analyzer.analyze(AudioSignal.silence(0.1))
        assert analyzer.find_peaks(spectrum, 10.0) == []


class TestTiming:
    def test_timed_analyze_returns_elapsed(self, analyzer):
        tone = sine_tone(1000, 0.05)
        spectrum, elapsed = analyzer.timed_analyze(tone)
        assert elapsed > 0
        assert spectrum.level_at(1000) > 50

    def test_50ms_window_is_fast(self, analyzer):
        """The Figure 2b claim territory: ~50 ms windows analyze in
        well under 5 ms on any modern machine."""
        tone = sine_tone(1000, 0.05)
        timings = [analyzer.timed_analyze(tone)[1] for _ in range(50)]
        assert np.median(timings) < 0.005


class TestSpectrogram:
    def test_shapes(self):
        tone = sine_tone(1000, 1.0)
        times, freqs, mags = power_spectrogram(tone, frame_duration=0.1)
        assert len(times) == 10
        assert mags.shape == (10, len(freqs))

    def test_tracks_frequency_over_time(self):
        first = sine_tone(500, 0.5, level_db=70.0)
        second = sine_tone(2000, 0.5, level_db=70.0)
        signal = first.concat(second)
        times, freqs, mags = power_spectrogram(signal, frame_duration=0.1)
        early_peak = freqs[np.argmax(mags[1])]
        late_peak = freqs[np.argmax(mags[-2])]
        assert early_peak == pytest.approx(500, abs=20)
        assert late_peak == pytest.approx(2000, abs=20)

    def test_empty_signal(self):
        times, freqs, mags = power_spectrogram(AudioSignal(np.zeros(0)))
        assert len(times) == 0

    def test_short_signal_shapes_are_consistent(self):
        """A signal shorter than one frame yields zero frames but a
        full frequency axis, so ``mags`` is ``(0, F)`` — not the old
        mismatched ``frequencies`` empty / ``mags`` ``(0, 0)``."""
        short = sine_tone(1000, 0.01)  # 10 ms < the 50 ms frame
        times, freqs, mags = power_spectrogram(short, frame_duration=0.05)
        assert len(times) == 0
        assert len(freqs) == 401  # 800-sample frame -> 401 rfft bins
        assert mags.shape == (0, len(freqs))

    def test_empty_signal_shapes_are_consistent(self):
        times, freqs, mags = power_spectrogram(
            AudioSignal(np.zeros(0)), frame_duration=0.05
        )
        assert len(times) == 0
        assert len(freqs) > 0
        assert mags.shape == (0, len(freqs))


class TestBoundedCaches:
    def test_window_length_caches_stay_bounded(self, analyzer):
        """A stream of ever-new window lengths must not grow the taper
        and analysis-plan memos without limit."""
        from repro.audio.fft import _analysis_plan, hann_taper

        for count in range(3, 3 + 2 * hann_taper.cache_info().maxsize):
            analyzer.analyze(AudioSignal(np.ones(count)))
        for cache in (hann_taper, _analysis_plan):
            info = cache.cache_info()
            assert info.maxsize is not None
            assert info.currsize <= info.maxsize
