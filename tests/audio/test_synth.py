"""Unit tests for tone synthesis: calibration, envelopes, tone specs."""

import numpy as np
import pytest

from repro.audio import (
    AudioSignal,
    SpectrumAnalyzer,
    ToneSpec,
    raised_cosine_envelope,
    sine_tone,
)


class TestSineTone:
    def test_rms_level_is_calibrated(self):
        tone = sine_tone(1000, 0.5, level_db=60.0)
        # Envelope slightly reduces RMS; allow 0.3 dB.
        assert tone.level_db() == pytest.approx(60.0, abs=0.3)

    def test_length(self):
        tone = sine_tone(500, 0.1, sample_rate=16000)
        assert len(tone) == 1600

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            sine_tone(0, 0.1)
        with pytest.raises(ValueError):
            sine_tone(-100, 0.1)

    def test_rejects_above_nyquist(self):
        with pytest.raises(ValueError, match="Nyquist"):
            sine_tone(9000, 0.1, sample_rate=16000)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            sine_tone(440, 0.0)

    def test_spectral_purity(self, analyzer):
        """Energy concentrates at the requested frequency."""
        tone = sine_tone(1200, 0.2, level_db=70.0)
        spectrum = analyzer.analyze(tone)
        loudest = spectrum.frequencies[np.argmax(spectrum.magnitudes)]
        assert loudest == pytest.approx(1200, abs=2.0)

    def test_envelope_reduces_edge_amplitude(self):
        shaped = sine_tone(1000, 0.1, ramp=0.01)
        hard = sine_tone(1000, 0.1, ramp=0.0)
        # First sample region of shaped tone is quieter than rectangular.
        assert np.max(np.abs(shaped.samples[:20])) < np.max(np.abs(hard.samples[:20])) + 1e-12
        assert abs(shaped.samples[0]) < 1e-9

    def test_envelope_suppresses_sidelobes(self):
        """The shaped tone leaks less energy 100 Hz away than the
        rectangular tone — the reason ramping is the default.  Measured
        with a rectangular analysis window so the tone's own envelope
        (not the analyzer's Hann taper) is what is being compared."""
        rect_analyzer = SpectrumAnalyzer(window="rect", zero_pad_factor=2)
        # Fractional-bin frequency: worst-case leakage for a raw tone.
        freq = 1003.7
        shaped = sine_tone(freq, 0.1, level_db=70.0, ramp=0.01)
        hard = sine_tone(freq, 0.1, level_db=70.0, ramp=0.0)
        off = freq + 150.0
        shaped_leak = rect_analyzer.analyze(shaped).magnitude_at(off)
        hard_leak = rect_analyzer.analyze(hard).magnitude_at(off)
        assert shaped_leak < hard_leak


class TestEnvelope:
    def test_zero_length(self):
        assert len(raised_cosine_envelope(0, 16000)) == 0

    def test_flat_top(self):
        env = raised_cosine_envelope(1600, 16000, ramp=0.01)
        assert env[800] == pytest.approx(1.0)

    def test_symmetric(self):
        env = raised_cosine_envelope(1000, 16000, ramp=0.01)
        np.testing.assert_allclose(env, env[::-1], atol=1e-12)

    def test_short_tone_ramp_shrinks(self):
        # 10-sample tone with a 100-sample ramp request must not error.
        env = raised_cosine_envelope(10, 16000, ramp=1.0)
        assert len(env) == 10
        assert env[0] < env[4]

    def test_envelopes_are_memoized(self):
        """The render hot path reuses one envelope per (length, ramp);
        the same request returns the same read-only array."""
        first = raised_cosine_envelope(1600, 16000, ramp=0.01)
        again = raised_cosine_envelope(1600, 16000, ramp=0.01)
        assert again is first
        assert not first.flags.writeable

    def test_equal_ramp_lengths_share_an_envelope(self):
        # Distinct (ramp, sample_rate) pairs that round to the same
        # ramp length in samples hit the same cache entry.
        a = raised_cosine_envelope(1600, 16000, ramp=0.01)
        b = raised_cosine_envelope(1600, 32000, ramp=0.005)
        assert b is a


class TestToneSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ToneSpec(-1, 0.1)
        with pytest.raises(ValueError):
            ToneSpec(440, 0)

    def test_signalling_ramp_rule(self):
        from repro.audio import MAX_SIGNALLING_RAMP, signalling_ramp
        assert signalling_ramp(0.04) == pytest.approx(0.01)
        assert signalling_ramp(1.0) == MAX_SIGNALLING_RAMP
