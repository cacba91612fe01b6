"""Tests for WAV import/export."""

import numpy as np
import pytest

from repro.audio import (
    AudioSignal,
    SpectrumAnalyzer,
    read_wav,
    sine_tone,
    write_wav,
)


class TestWrite:
    def test_roundtrip_preserves_waveform(self, tmp_path):
        tone = sine_tone(1000, 0.2, level_db=70.0)
        path = write_wav(tone, tmp_path / "tone.wav")
        loaded = read_wav(path)
        assert loaded.sample_rate == tone.sample_rate
        assert len(loaded) == len(tone)
        # Normalized on write: compare shapes via correlation.
        a = tone.samples / np.max(np.abs(tone.samples))
        b = loaded.samples / np.max(np.abs(loaded.samples))
        correlation = float(np.dot(a, b) / (np.linalg.norm(a)
                                            * np.linalg.norm(b)))
        assert correlation > 0.999

    def test_spectrum_survives_roundtrip(self, tmp_path):
        """The figure-of-merit: a tone written and re-read is still
        detected at its frequency."""
        tone = sine_tone(1234, 0.2, level_db=70.0)
        loaded = read_wav(write_wav(tone, tmp_path / "t.wav"))
        analyzer = SpectrumAnalyzer(zero_pad_factor=2)
        spectrum = analyzer.analyze(loaded)
        loudest = spectrum.frequencies[np.argmax(spectrum.magnitudes)]
        assert loudest == pytest.approx(1234, abs=2.0)

    def test_empty_signal_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_wav(AudioSignal(np.zeros(0)), tmp_path / "x.wav")

    def test_bad_peak_fraction(self, tmp_path):
        tone = sine_tone(440, 0.05)
        with pytest.raises(ValueError):
            write_wav(tone, tmp_path / "x.wav", peak_fraction=0.0)

    def test_unnormalized_clips(self, tmp_path):
        loud = AudioSignal(np.full(100, 5.0))
        loaded = read_wav(write_wav(loud, tmp_path / "c.wav",
                                    normalize=False))
        assert np.max(loaded.samples) == pytest.approx(1.0, abs=0.01)

    def test_sample_rate_preserved(self, tmp_path):
        tone = sine_tone(440, 0.05, sample_rate=44_100)
        loaded = read_wav(write_wav(tone, tmp_path / "sr.wav"))
        assert loaded.sample_rate == 44_100


class TestRead:
    def test_stereo_takes_first_channel(self, tmp_path):
        import wave

        path = tmp_path / "stereo.wav"
        left = (np.sin(np.linspace(0, 40 * np.pi, 800)) * 30000).astype("<i2")
        right = np.zeros(800, dtype="<i2")
        interleaved = np.empty(1600, dtype="<i2")
        interleaved[0::2] = left
        interleaved[1::2] = right
        with wave.open(str(path), "wb") as handle:
            handle.setnchannels(2)
            handle.setsampwidth(2)
            handle.setframerate(16000)
            handle.writeframes(interleaved.tobytes())
        loaded = read_wav(path)
        assert len(loaded) == 800
        assert loaded.rms() > 0.1  # got the non-silent channel

    def test_unsupported_width_rejected(self, tmp_path):
        import wave

        path = tmp_path / "w24.wav"
        with wave.open(str(path), "wb") as handle:
            handle.setnchannels(1)
            handle.setsampwidth(3)
            handle.setframerate(16000)
            handle.writeframes(b"\x00" * 300)
        with pytest.raises(ValueError, match="width"):
            read_wav(path)

    def test_experiment_audio_is_exportable(self, tmp_path):
        """End to end: record the port-knocking air and write it out —
        the file a human could actually listen to."""
        from repro.experiments import build_testbed
        from repro.audio import ToneSpec

        testbed = build_testbed("single")
        testbed.agents["s1"].play(520.0, 0.2, 70.0)
        capture = testbed.controller.microphone.record(
            testbed.channel, 0.0, 0.5
        )
        path = write_wav(capture, tmp_path / "knock.wav")
        assert path.stat().st_size > 1000
