"""Integration: detection robustness under interference.

The paper tests "with and without background noise" (§3) and uses a pop
song as the interferer in Figure 4.  These tests sweep interference
types and levels against a single watched tone to characterize where
detection survives and where it honestly breaks.
"""

import numpy as np
import pytest

from repro.audio import (
    AcousticChannel,
    FrequencyDetector,
    Microphone,
    Position,
    SongNoise,
    Speaker,
    ToneSpec,
    datacenter_ambience,
    white_noise,
)
from tests.audio.signals import linear_sweep

TONE_HZ = 2000.0
TONE_DB = 70.0


def detect_with_noise(noise_signal) -> bool:
    channel = AcousticChannel()
    if noise_signal is not None:
        channel.add_noise(noise_signal, Position(1.5, 1.5, 0))
    Speaker(Position(0.5, 0, 0)).play(channel, 0.0, ToneSpec(TONE_HZ, 0.3, TONE_DB))
    window = Microphone(Position(), seed=4).record(channel, 0.05, 0.25)
    detector = FrequencyDetector([TONE_HZ])
    return len(detector.detect(window)) == 1


class TestInterferenceTypes:
    def test_clean(self):
        assert detect_with_noise(None)

    def test_white_noise_moderate(self):
        noise = white_noise(1.0, level_db=55.0, rng=np.random.default_rng(1))
        assert detect_with_noise(noise)

    def test_song(self):
        assert detect_with_noise(SongNoise(seed=10, level_db=60.0).render(2.0))

    def test_datacenter_ambience(self):
        noise = datacenter_ambience(1.0, level_db=70.0,
                                    rng=np.random.default_rng(2))
        assert detect_with_noise(noise)

    def test_sweeping_chirp_interferer(self):
        """A chirp crossing the watched band: worst-case tonal
        interference, still survivable at moderate level."""
        sweep = linear_sweep(500, 4000, 1.0, level_db=55.0)
        assert detect_with_noise(sweep)

    def test_overwhelming_noise_honestly_fails(self):
        """At a 30+ dB disadvantage the tone is genuinely buried; the
        detector must NOT hallucinate it."""
        channel = AcousticChannel()
        noise = white_noise(1.0, level_db=95.0, rng=np.random.default_rng(3))
        channel.add_noise(noise, Position())  # co-located with the mic
        Speaker(Position(0.5, 0, 0)).play(
            channel, 0.0, ToneSpec(TONE_HZ, 0.3, 50.0)
        )
        window = Microphone(Position(), seed=4).record(channel, 0.05, 0.25)
        detector = FrequencyDetector([TONE_HZ])
        assert detector.detect(window) == []


class TestSNRSweep:
    @pytest.mark.parametrize("noise_db,expected", [
        (40.0, True),
        (55.0, True),
        (65.0, True),
    ])
    def test_detection_vs_noise_level(self, noise_db, expected):
        noise = white_noise(1.0, level_db=noise_db,
                            rng=np.random.default_rng(5))
        assert detect_with_noise(noise) is expected

    def test_no_false_positives_in_pure_noise(self):
        """100 noise-only windows, zero detections of the watched tone."""
        detector = FrequencyDetector([TONE_HZ])
        false_positives = 0
        for seed in range(100):
            window_noise = white_noise(
                0.2, level_db=55.0, rng=np.random.default_rng(seed)
            )
            if detector.detect(window_noise):
                false_positives += 1
        assert false_positives == 0

    def test_false_positive_rate_under_song(self):
        """Song-only windows: the melody must not alias onto a watched
        20 Hz-grid frequency more than rarely."""
        detector = FrequencyDetector([TONE_HZ, TONE_HZ + 20, TONE_HZ + 40])
        song = SongNoise(seed=77, level_db=60.0).render(20.0)
        events = detector.detect_stream(song, frame_duration=0.2)
        hits = len({event.time for event in events})
        assert hits <= 10  # <= 10% of 100 windows
