"""Equivalence suite: vectorized hot paths vs their scalar references.

The listening loop's vectorized implementations (the batched
spectrogram, the streaming detector) must reproduce
the scalar/looped reference implementations within 1e-9 — the RMS
calibration contract of DESIGN.md §5 — across window sizes, hop sizes
and zero-pad factors, including non-divisible frame/hop combinations.

The detect path (peak picking, sidelobe rejection, watch-list
matching) is held to more: the event lists it returns, and those of the
array pipeline it replaced (``tests/audio/reference_detect.py``), must
*equal* those of the per-peak scalar loops kept below as references,
over generated spectra that hit every tie and boundary those loops
decide.
"""

from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.audio import (
    AudioSignal,
    DetectionEvent,
    FrequencyDetector,
    SpectrumAnalyzer,
    amplitude_to_db,
    power_spectrogram,
    sine_tone,
    white_noise,
)
from repro.audio.detector import (
    SIDELOBE_RADIUS_HZ,
    SIDELOBE_REJECTION_DB,
    _shadowed,
)
from repro.audio.fft import Spectrum
from tests.audio.reference_detect import (
    events_from_spectrum,
    match,
    unshadowed,
)
from tests.audio.reference_spectrogram import (
    frames as reference_frames,
    power_spectrogram_reference,
)
from tests.audio.signals import linear_sweep
from tests.audio.test_fft import peaks

TOLERANCE = 1e-9


# ---------------------------------------------------------------------
# Scalar references: the per-peak loops the array detect path replaced.
# ---------------------------------------------------------------------

class ScalarPeak(namedtuple("ScalarPeak", "frequency magnitude")):
    @property
    def level_db(self):
        return amplitude_to_db(self.magnitude)


def reference_peaks(spectrum, threshold_db):
    """The local maxima standing ``threshold_db`` above the noise
    floor, refined by clamped parabolic interpolation, loudest first."""
    mags = spectrum.magnitudes
    freqs = spectrum.frequencies
    if len(mags) < 3:
        return []
    floor = max(spectrum.noise_floor(), 1e-12)
    min_magnitude = floor * 10.0 ** (threshold_db / 20.0)
    candidates = np.where(
        (mags[1:-1] > mags[:-2])
        & (mags[1:-1] >= mags[2:])
        & (mags[1:-1] >= min_magnitude)
    )[0] + 1
    peaks = []
    for index in candidates:
        left, centre, right = mags[index - 1], mags[index], mags[index + 1]
        denominator = left - 2.0 * centre + right
        if denominator != 0.0:
            offset = 0.5 * (left - right) / denominator
            offset = float(np.clip(offset, -0.5, 0.5))
        else:
            offset = 0.0
        refined = freqs[index] + offset * spectrum.bin_width
        peaks.append(ScalarPeak(float(refined), float(centre)))
    peaks.sort(key=lambda p: p.magnitude, reverse=True)
    return peaks


def peak_rows(spectrum, threshold_db):
    """The peaks :func:`~tests.audio.test_fft.peaks` finds, as
    ``ScalarPeak`` tuples."""
    return [ScalarPeak(*peak) for peak in peaks(spectrum, threshold_db)]


def reference_reject_sidelobes(peaks):
    kept = []
    for peak in peaks:  # peaks arrive sorted by descending magnitude
        shadowed = any(
            abs(strong.frequency - peak.frequency) <= SIDELOBE_RADIUS_HZ
            and strong.level_db - peak.level_db >= SIDELOBE_REJECTION_DB
            for strong in kept
        )
        if not shadowed:
            kept.append(peak)
    return kept


def reference_match(detector, measured):
    best = min(detector.watched, key=lambda f: abs(f - measured))
    if abs(best - measured) <= detector.tolerance_hz:
        return best
    return None


def reference_events_from_spectrum(detector, spectrum, time):
    """The scalar form of ``FrequencyDetector._row_events`` on one row."""
    peaks = reference_peaks(spectrum, detector.threshold_db)
    peaks = reference_reject_sidelobes(peaks)
    events = {}
    for peak in peaks:
        if peak.level_db < detector.min_level_db:
            continue
        watched = reference_match(detector, peak.frequency)
        if watched is None:
            continue
        event = DetectionEvent(watched, peak.frequency, peak.level_db, time)
        existing = events.get(watched)
        if existing is None or event.level_db > existing.level_db:
            events[watched] = event
    return sorted(events.values(), key=lambda e: e.frequency)


@pytest.fixture(scope="module")
def busy_signal():
    """One second of tones + noise: every bin has energy to compare."""
    rng = np.random.default_rng(99)
    return AudioSignal.from_components([
        sine_tone(500, 1.0, level_db=62.0),
        sine_tone(940, 1.0, level_db=58.0),
        linear_sweep(1200, 2400, 1.0, level_db=55.0),
        white_noise(1.0, level_db=45.0, rng=rng),
    ])


class TestSpectrogramEquivalence:
    @pytest.mark.parametrize(("frame_duration", "hop_duration"), [
        (0.05, None),          # non-overlapping
        (0.05, 0.025),         # half-overlap
        (0.05, 0.037),         # non-divisible frame/hop
        (0.1, 0.03),           # hop does not divide the frame
        (0.0501, 0.0203),      # neither aligns with the sample grid
    ])
    @pytest.mark.parametrize("zero_pad_factor", [1, 2, 3])
    def test_batched_matches_looped_reference(self, busy_signal,
                                              frame_duration, hop_duration,
                                              zero_pad_factor):
        analyzer = SpectrumAnalyzer(zero_pad_factor=zero_pad_factor)
        times, frequencies, magnitudes = power_spectrogram(
            busy_signal, frame_duration, hop_duration, analyzer
        )
        ref_times, ref_frequencies, ref_magnitudes = power_spectrogram_reference(
            busy_signal, frame_duration, hop_duration, analyzer
        )
        np.testing.assert_array_equal(times, ref_times)
        np.testing.assert_array_equal(frequencies, ref_frequencies)
        np.testing.assert_allclose(magnitudes, ref_magnitudes, atol=TOLERANCE)

    def test_rect_window_matches_reference(self, busy_signal):
        analyzer = SpectrumAnalyzer(window="rect")
        _t, _f, magnitudes = power_spectrogram(busy_signal, 0.05, None, analyzer)
        _t, _f, reference = power_spectrogram_reference(
            busy_signal, 0.05, None, analyzer
        )
        np.testing.assert_allclose(magnitudes, reference, atol=TOLERANCE)

    def test_frame_matrix_matches_frames_iterator(self, busy_signal):
        times, frames = busy_signal.frame_matrix(0.05, 0.037)
        reference = list(reference_frames(busy_signal, 0.05, 0.037))
        assert len(times) == len(reference)
        for index, (start, frame) in enumerate(reference):
            assert times[index] == start
            np.testing.assert_array_equal(frames[index], frame.samples)


class TestDetectStreamEquivalence:
    @pytest.mark.parametrize("hop_duration", [None, 0.03])
    def test_stream_matches_manual_framing(self, busy_signal, hop_duration):
        """detect_stream == framing the signal yourself + detect per frame."""
        detector = FrequencyDetector([500.0, 940.0, 1500.0])
        stream = detector.detect_stream(busy_signal, 0.05, hop_duration)
        manual = [
            event
            for start, frame in reference_frames(busy_signal, 0.05,
                                                 hop_duration)
            for event in detector.detect(frame, start)
        ]
        assert len(stream) == len(manual)
        for got, want in zip(stream, manual):
            assert got.frequency == want.frequency
            assert got.time == want.time
            assert got.measured_frequency == pytest.approx(
                want.measured_frequency, abs=TOLERANCE
            )
            assert got.level_db == pytest.approx(want.level_db, abs=TOLERANCE)


# ---------------------------------------------------------------------
# Detect paths vs the scalar references: exact event lists.
# ---------------------------------------------------------------------

def detector_events(detector, spectrum, time):
    """``FrequencyDetector``'s own events for a ready-made spectrum."""
    return detector._row_events(spectrum.frequencies, spectrum.bin_width,
                                spectrum.magnitudes.reshape(1, -1),
                                (time,))[0]


#: ``1.0`` just below: as a peak's left neighbour, with centre and right
#: neighbour at 1.0, it makes the parabolic denominator round to 0.
ONE_BELOW = float(np.nextafter(1.0, 0.0))

#: A small pool makes equal magnitudes (flat tops, equal peak heights)
#: common; the free floats cover everything else.
magnitude_values = st.one_of(
    st.sampled_from([0.0, 1e-4, 1e-3, 0.004, 0.01, 0.05, 0.3, ONE_BELOW, 1.0]),
    st.floats(0.0, 2.0),
)


@st.composite
def spectra(draw):
    """Ascending bins on a grid whose frequencies (and their
    differences) are exact, so band, tolerance and 120 Hz boundaries
    are hit exactly."""
    mags = np.array(draw(st.lists(magnitude_values, max_size=48)),
                    dtype=float)
    bin_width = draw(st.sampled_from([5.0, 10.0, 20.0, 40.0]))
    first = draw(st.sampled_from([0.0, 300.0]))
    freqs = first + bin_width * np.arange(len(mags))
    return Spectrum(freqs, mags, 48000, 0.05)


class TestArrayDetectEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(spectrum=spectra(),
           threshold_db=st.sampled_from([0.0, 3.0, 10.0, 20.0]))
    def test_peak_rows_match_scalar_loop(self, spectrum, threshold_db):
        assert (peak_rows(spectrum, threshold_db)
                == reference_peaks(spectrum, threshold_db))

    def test_zero_parabolic_denominator_keeps_the_bin_centre(self):
        assert ONE_BELOW - 2.0 * 1.0 + 1.0 == 0.0
        mags = np.array([0.0, ONE_BELOW, 1.0, 1.0] + [1e-3] * 8)
        spectrum = Spectrum(10.0 * np.arange(len(mags)), mags, 48000, 0.05)
        peaks = peak_rows(spectrum, 10.0)
        assert peaks == reference_peaks(spectrum, 10.0)
        assert peaks[0].frequency == 20.0

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), spectrum=spectra())
    def test_events_match_scalar_loop(self, data, spectrum):
        """Exact event lists, with the min-level cut placed on a peak's
        own level and watched tones placed on, between and around the
        peaks (equidistant ties, the tolerance boundary)."""
        peaks = reference_peaks(spectrum, 0.0)
        low = spectrum.frequencies[0] if len(spectrum.frequencies) else 100.0
        tones = st.sampled_from([low + 5.0 * k for k in range(-4, 200)])
        if peaks:
            tones |= st.sampled_from([peak.frequency + offset
                                      for peak in peaks
                                      for offset in (-10.0, -5.0, 0.0, 5.0,
                                                     10.0, 20.0)])
        watched = data.draw(st.lists(tones, min_size=1, max_size=12))
        levels = [peak.level_db for peak in peaks] or [30.0]
        min_level_db = data.draw(st.sampled_from(levels + [-200.0, 30.0]))
        detector = FrequencyDetector(
            watched,
            tolerance_hz=data.draw(st.sampled_from([2.5, 5.0, 10.0, 20.0])),
            threshold_db=data.draw(st.sampled_from([0.0, 10.0])),
            min_level_db=min_level_db,
        )
        want = reference_events_from_spectrum(detector, spectrum, 1.5)
        assert detector_events(detector, spectrum, 1.5) == want
        assert events_from_spectrum(detector, spectrum, 1.5) == want

    @settings(max_examples=200, deadline=None)
    @given(measured=st.lists(st.sampled_from(
               [-30.0, 0.0, 95.0, 100.0, 105.0, 110.0, 112.5, 120.0, 130.0,
                135.0, 1e4]), max_size=10),
           watched=st.lists(st.sampled_from(
               [90.0, 100.0, 110.0, 120.0, 125.0, 140.0, 150.0]),
               min_size=1, max_size=6),
           tolerance_hz=st.sampled_from([2.5, 5.0, 10.0, 15.0]))
    @example(measured=[5.0], watched=[1e-20, 2e-20, 50.0], tolerance_hz=10.0)
    def test_match_ties_go_to_the_lower_frequency(self, measured, watched,
                                                   tolerance_hz):
        """Equidistant neighbours, exact tolerance distances, and a
        watch list whose rounded distances tie *below* the nearest
        neighbour pair (1e-20 and 2e-20 are both 5.0 from 5.0)."""
        detector = FrequencyDetector(watched, tolerance_hz=tolerance_hz)
        want = [reference_match(detector, m) for m in measured]
        assert [detector._nearest(m) for m in measured] == want
        got = [detector.watched[i] if i >= 0 else None
               for i in match(detector, np.array(measured)).tolist()]
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(peaks=st.lists(st.tuples(st.sampled_from(20.0 * np.arange(40)),
                                    st.sampled_from(2.5 * np.arange(30))),
                          max_size=16))
    def test_sidelobe_mask_matches_greedy_loop(self, peaks):
        """Levels on a 2.5 dB grid and frequencies on a 20 Hz grid hit
        the 15 dB and 120 Hz boundaries exactly; equal levels tie."""
        Peak = namedtuple("Peak", "frequency level_db")
        ordered = sorted((Peak(*p) for p in peaks),
                         key=lambda p: p.level_db, reverse=True)
        want = reference_reject_sidelobes(ordered)
        mask = unshadowed(np.array([p.frequency for p in ordered]),
                          np.array([p.level_db for p in ordered]))
        assert [peak for peak, keep in zip(ordered, mask) if keep] == want
        kept = []
        for peak in ordered:
            if not _shadowed(
                [(p.level_db, p.frequency) for p in kept],
                peak.level_db, peak.frequency,
            ):
                kept.append(peak)
        assert kept == want

    def test_equal_peaks_keep_ascending_frequency_order(self):
        """A comb of peaks at three heights, longer than the 16 elements
        below which numpy's default sort happens to be stable."""
        mags = np.full(120, 1e-3)
        mags[1::2] = np.resize([1.0, 0.5, 0.25], 60)
        spectrum = Spectrum(10.0 * np.arange(len(mags)), mags, 48000, 0.05)
        peaks = peak_rows(spectrum, 0.0)
        assert len(peaks) == 59
        assert peaks == reference_peaks(spectrum, 0.0)
        assert peaks == sorted(peaks, key=lambda p: (-p.magnitude, p.frequency))

    @pytest.mark.parametrize("second", [0.5, 1.0])
    def test_two_peaks_claiming_one_watched_tone(self, second):
        """The louder peak names the event; on equal levels the first
        in magnitude order (the lower frequency) keeps it."""
        mags = np.full(24, 1e-3)
        mags[10], mags[12] = 1.0, second
        spectrum = Spectrum(10.0 * np.arange(24), mags, 48000, 0.05)
        detector = FrequencyDetector([110.0], tolerance_hz=10.0)
        events = detector_events(detector, spectrum, 0.0)
        assert events == reference_events_from_spectrum(detector, spectrum, 0.0)
        assert events == events_from_spectrum(detector, spectrum, 0.0)
        assert [e.measured_frequency for e in events] == [100.0]

    def test_empty_spectra(self):
        detector = FrequencyDetector([100.0])
        for bins in range(3):
            spectrum = Spectrum(10.0 * np.arange(bins), np.ones(bins),
                                48000, 0.05)
            assert detector_events(detector, spectrum, 0.0) == []
            assert events_from_spectrum(detector, spectrum, 0.0) == []
        assert match(detector, np.zeros(0)).tolist() == []
