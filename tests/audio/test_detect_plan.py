"""``FrequencyDetector.detect`` / ``detect_stream`` against the array
pipeline they replaced (``tests/audio/reference_detect.py``), over
generated capture windows: the events must be equal, and the partition
noise floor equal to ``np.median`` bit for bit.

The windows hold 0-60 tones at random levels and spacings, with pairs
15 dB apart within 120 Hz (the sidelobe-rejection boundary), plus
silent and empty windows; both zero-pad factors give odd and even bin
counts.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audio import AudioSignal, FrequencyDetector, SpectrumAnalyzer
from repro.audio.detector import SIDELOBE_RADIUS_HZ, SIDELOBE_REJECTION_DB
from repro.audio.fft import median
from repro.audio.signal import db_to_amplitude
from repro.fleet import RoomSpec, run_room
from tests.audio.reference_detect import (
    reference_detect,
    reference_detect_stream,
)

RATE = 48000

#: Odd and even window lengths; with zero-pad factors 1 and 2 they give
#: odd and even bin counts.
LENGTHS = [0, 1, 2, 3, 4, 240, 533, 534]


@st.composite
def tone_sets(draw):
    """``(frequency, level_db)`` tones, some in close pairs whose second
    tone sits near ``SIDELOBE_REJECTION_DB`` below the first."""
    tones = []
    for _ in range(draw(st.integers(0, 30))):
        frequency = draw(st.floats(60.0, 20000.0))
        level = draw(st.floats(20.0, 90.0))
        tones.append((frequency, level))
        if draw(st.booleans()):
            spacing = draw(st.floats(-SIDELOBE_RADIUS_HZ, SIDELOBE_RADIUS_HZ))
            margin = draw(st.sampled_from([-0.5, -0.01, 0.0, 0.01, 0.5]))
            tones.append((min(max(frequency + spacing, 20.0), 23000.0),
                          level - SIDELOBE_REJECTION_DB + margin))
    return tones


def render(tones, count, noise_db, seed):
    """``count`` samples of the tones over white noise (none when
    ``noise_db`` is None)."""
    steps = np.arange(count)
    samples = np.zeros(count)
    rng = np.random.default_rng(seed)
    for frequency, level in tones:
        phase = rng.uniform(0.0, 2.0 * math.pi)
        samples += (db_to_amplitude(level) * math.sqrt(2.0)
                    * np.sin(2.0 * math.pi * frequency * steps / RATE + phase))
    if noise_db is not None:
        samples += db_to_amplitude(noise_db) * rng.standard_normal(count)
    return AudioSignal(samples, RATE)


@st.composite
def detectors(draw, tones):
    """A detector watching some of the tones (exactly, or off by up to
    a tolerance) and some other frequencies."""
    near = [frequency + draw(st.sampled_from([-10.0, -5.0, 0.0, 2.5, 10.0]))
            for frequency, _level in tones[: draw(st.integers(0, len(tones)))]]
    others = draw(st.lists(st.floats(60.0, 20000.0), max_size=20))
    return FrequencyDetector(
        (near + others) or [1000.0],
        tolerance_hz=draw(st.sampled_from([2.5, 5.0, 10.0, 20.0])),
        threshold_db=draw(st.sampled_from([0.0, 6.0, 10.0, 20.0])),
        min_level_db=draw(st.sampled_from([-200.0, 0.0, 30.0, 45.0])),
        analyzer=SpectrumAnalyzer(
            zero_pad_factor=draw(st.sampled_from([1, 2]))),
    )


class TestPlanDetectEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), tones=tone_sets(),
           count=st.sampled_from(LENGTHS),
           noise_db=st.sampled_from([None, 0.0, 15.0, 40.0]),
           seed=st.integers(0, 2**16))
    def test_detect_matches_reference(self, data, tones, count, noise_db,
                                      seed):
        detector = data.draw(detectors(tones))
        window = render(tones, count, noise_db, seed)
        assert (detector.detect(window, 2.5)
                == reference_detect(detector, window, 2.5))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), tones=tone_sets(),
           noise_db=st.sampled_from([None, 15.0]),
           hop=st.sampled_from([None, 0.004, 0.0107]),
           seed=st.integers(0, 2**16))
    def test_detect_stream_matches_reference(self, data, tones, noise_db,
                                             hop, seed):
        detector = data.draw(detectors(tones))
        signal = render(tones, 2400, noise_db, seed)
        assert (detector.detect_stream(signal, 0.0111, hop, 1.0)
                == reference_detect_stream(detector, signal, 0.0111, hop,
                                           1.0))

    def test_silent_and_empty_windows(self):
        detector = FrequencyDetector([1000.0], min_level_db=-200.0,
                                     threshold_db=0.0)
        for count in LENGTHS:
            window = AudioSignal(np.zeros(count), RATE)
            assert detector.detect(window) == []
            assert reference_detect(detector, window) == []
        assert detector.detect_stream(AudioSignal(np.zeros(0), RATE)) == []


class TestPartitionMedian:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(
        st.one_of(st.sampled_from([0.0, 1e-12, 0.5, 1.0, 1.0, 3.0]),
                  st.floats(0.0, 1e6)),
        max_size=40))
    def test_equals_numpy_median_bit_for_bit(self, values):
        values = np.array(values, dtype=float)
        want = float(np.median(values)) if len(values) else 0.0
        assert median(values).hex() == want.hex()

    def test_nan_propagates_like_numpy(self):
        for values in ([1.0, math.nan, 2.0, 3.0], [math.nan, 1.0, 2.0]):
            values = np.array(values)
            assert math.isnan(np.median(values))
            assert math.isnan(median(values))

    @pytest.mark.parametrize("zero_pad_factor", [1, 2])
    @pytest.mark.parametrize("count", [533, 534])
    def test_floor_of_real_spectra(self, count, zero_pad_factor):
        analyzer = SpectrumAnalyzer(zero_pad_factor=zero_pad_factor)
        rng = np.random.default_rng(count)
        spectrum = analyzer.analyze(AudioSignal(rng.standard_normal(count),
                                                RATE))
        assert (spectrum.noise_floor().hex()
                == float(np.median(spectrum.magnitudes)).hex())


def test_every_window_of_a_dense_room_matches_reference(monkeypatch):
    """Each listening window of a 50-switch, 3 s room: the batched
    detect and the reference give equal events, window by window."""
    detect_frames = FrequencyDetector.detect_frames
    windows = []

    def checked_detect_frames(self, frames, sample_rate, times):
        rows = detect_frames(self, frames, sample_rate, times)
        for row, time, events in zip(frames, times, rows):
            assert events == reference_detect(
                self, AudioSignal(row, sample_rate), time)
            windows.append(len(events))
        return rows

    monkeypatch.setattr(FrequencyDetector, "detect_frames",
                        checked_detect_frames)
    run_room(RoomSpec(room_id=0, num_switches=50, horizon=3.0))
    assert len(windows) >= 80
    assert sum(windows) > 0
