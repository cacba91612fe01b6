"""Unit tests for the known-frequency detector."""

import warnings

import numpy as np
import pytest

from repro.audio import (
    AudioSignal,
    FrequencyDetector,
    SongNoise,
    sine_tone,
    white_noise,
)


class TestConstruction:
    def test_requires_frequencies(self):
        with pytest.raises(ValueError):
            FrequencyDetector([])

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            FrequencyDetector([1000], tolerance_hz=0)

    def test_deduplicates_watch_list(self):
        detector = FrequencyDetector([1000, 1000.0, 2000])
        assert detector.watched == [1000.0, 2000.0]


class TestDetection:
    def test_single_tone(self):
        detector = FrequencyDetector([500, 1000, 1500])
        events = detector.detect(sine_tone(1000, 0.1, level_db=60.0))
        assert [e.frequency for e in events] == [1000.0]

    def test_level_reported(self):
        detector = FrequencyDetector([1000])
        events = detector.detect(sine_tone(1000, 0.1, level_db=60.0))
        assert events[0].level_db == pytest.approx(60.0, abs=1.0)

    def test_simultaneous_tones(self):
        detector = FrequencyDetector([500, 1000, 1500])
        mix = AudioSignal.from_components([
            sine_tone(500, 0.2, level_db=60.0),
            sine_tone(1500, 0.2, level_db=58.0),
        ])
        events = detector.detect(mix)
        assert [e.frequency for e in events] == [500.0, 1500.0]

    def test_below_min_level_ignored(self):
        detector = FrequencyDetector([1000], min_level_db=30.0)
        events = detector.detect(sine_tone(1000, 0.1, level_db=20.0))
        assert events == []

    def test_empty_window(self):
        detector = FrequencyDetector([1000])
        assert detector.detect(AudioSignal(np.zeros(0))) == []

    def test_silence(self):
        detector = FrequencyDetector([1000])
        assert detector.detect(AudioSignal.silence(0.1)) == []

    @pytest.mark.parametrize("count", range(5))
    def test_tiny_windows_detect_nothing_without_float_warnings(self, count):
        """The 2-point Hann taper is all zeros: its plan must not
        divide by the zero coherent gain and feed NaNs to detect."""
        detector = FrequencyDetector([1000])
        window = AudioSignal(np.ones(count))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert detector.detect(window) == []
            if count:
                assert detector.detect_stream(
                    AudioSignal(np.ones(8)), frame_duration=count / 48000
                ) == []

    def test_noise_robustness(self, rng):
        detector = FrequencyDetector([800, 1200])
        mix = sine_tone(1200, 0.2, level_db=65.0).mix(
            white_noise(0.2, level_db=45.0, rng=rng)
        )
        events = detector.detect(mix)
        assert [e.frequency for e in events] == [1200.0]

    def test_song_noise_robustness(self):
        """The Figure 4b/4d condition: detection with a pop song in the
        room.  The watched tone must still be found and the song's own
        notes must not register as watched tones."""
        detector = FrequencyDetector([3000, 3100])
        song = SongNoise(seed=4, level_db=55.0).render(0.3)
        mix = sine_tone(3000, 0.3, level_db=68.0).mix(song)
        events = detector.detect(mix)
        assert [e.frequency for e in events] == [3000.0]

    def test_time_propagated(self):
        detector = FrequencyDetector([1000])
        events = detector.detect(sine_tone(1000, 0.1, level_db=60.0), time=42.5)
        assert events[0].time == 42.5


class TestDetectStream:
    def test_tone_change_tracked_across_frames(self):
        """A capture with two consecutive tones yields events for each
        tone stamped with the right frame times."""
        detector = FrequencyDetector([500, 2000])
        signal = AudioSignal(np.concatenate([
            sine_tone(500, 0.5, level_db=65.0).samples,
            sine_tone(2000, 0.5, level_db=65.0).samples,
        ]))
        events = detector.detect_stream(signal, frame_duration=0.1)
        early = {e.frequency for e in events if e.time < 0.4}
        late = {e.frequency for e in events if e.time >= 0.6}
        assert early == {500.0}
        assert late == {2000.0}

    def test_start_time_offsets_event_times(self):
        detector = FrequencyDetector([1000])
        signal = sine_tone(1000, 0.3, level_db=65.0)
        events = detector.detect_stream(signal, frame_duration=0.1,
                                        start_time=7.0)
        assert [e.time for e in events] == pytest.approx([7.0, 7.1, 7.2])

    def test_empty_signal(self):
        detector = FrequencyDetector([1000])
        assert detector.detect_stream(AudioSignal(np.zeros(0))) == []

    def test_signal_shorter_than_one_frame(self):
        detector = FrequencyDetector([1000])
        short = sine_tone(1000, 0.01, level_db=65.0)
        assert detector.detect_stream(short, frame_duration=0.05) == []

    def test_overlapping_hop(self):
        detector = FrequencyDetector([1000])
        signal = sine_tone(1000, 0.4, level_db=65.0)
        events = detector.detect_stream(signal, frame_duration=0.1,
                                        hop_duration=0.05)
        assert len(events) == 7  # (0.4 - 0.1) / 0.05 + 1 frames
        assert all(e.frequency == 1000.0 for e in events)


class TestFFTSpecifics:
    def test_twenty_hz_separation_resolved(self):
        """The paper's separability limit: two tones 20 Hz apart, both
        identified, with a 200 ms window."""
        detector = FrequencyDetector([1000, 1020])
        mix = AudioSignal.from_components([
            sine_tone(1000, 0.2, level_db=60.0),
            sine_tone(1020, 0.2, level_db=60.0),
        ])
        events = detector.detect(mix)
        assert [e.frequency for e in events] == [1000.0, 1020.0]

    def test_sidelobe_of_loud_tone_rejected(self):
        """A single loud tone must not trigger its 20 Hz neighbours."""
        detector = FrequencyDetector([1000, 1020, 1040])
        events = detector.detect(sine_tone(1000, 0.2, level_db=80.0))
        assert [e.frequency for e in events] == [1000.0]

    def test_tolerance_match(self):
        """A tone 5 Hz off its plan frequency still matches (mic clock
        drift), but 50 Hz off does not."""
        detector = FrequencyDetector([1000], tolerance_hz=10.0)
        near = detector.detect(sine_tone(1005, 0.2, level_db=60.0))
        far = detector.detect(sine_tone(1050, 0.2, level_db=60.0))
        assert [e.frequency for e in near] == [1000.0]
        assert far == []

    def test_measured_frequency_reported(self):
        detector = FrequencyDetector([1000], tolerance_hz=10.0)
        events = detector.detect(sine_tone(1004, 0.25, level_db=60.0))
        assert events[0].measured_frequency == pytest.approx(1004, abs=2.0)
