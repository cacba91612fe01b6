"""Equivalence suite: vectorized channel rendering vs the scalar loop.

``AcousticChannel.render_at`` (interval index + flat synthesis +
window memo) must reproduce ``render_at_reference`` (the original
per-tone scalar loop) bit for bit across window seams, echo taps,
partial overlaps, fault models, pruned histories, and loop/non-loop
noise beds: both paths evaluate the same IEEE operations per sample and
sum overlapping segments in the same (tone, tap) order.
"""

import numpy as np
import pytest

from repro.audio import (
    AcousticChannel,
    Microphone,
    Position,
    ToneSpec,
    white_noise,
)
from repro.faults import FaultHarness
from repro.net.sim import Simulator

TOLERANCE = 1e-9

LISTENER = Position(0.3, 0.1, 0.0)


def _assert_paths_match(channel, listener, start, end):
    fast = channel.render_at(listener, start, end)
    reference = channel.render_at_reference(listener, start, end)
    assert len(fast) == len(reference)
    np.testing.assert_array_equal(fast.samples, reference.samples)
    return fast


def busy_channel(echo_taps=(), enable_propagation_delay=True, seed=7):
    """Dozens of overlapping tones at staggered offsets and distances."""
    rng = np.random.default_rng(seed)
    channel = AcousticChannel(
        enable_propagation_delay=enable_propagation_delay,
        echo_taps=echo_taps,
    )
    for index in range(30):
        channel.play_tone(
            float(rng.uniform(0.0, 1.5)),
            ToneSpec(
                300.0 + 37.0 * index,
                float(rng.uniform(0.03, 0.4)),
                float(rng.uniform(55.0, 70.0)),
            ),
            Position(
                float(rng.uniform(0.2, 8.0)),
                float(rng.uniform(-3.0, 3.0)),
                0.0,
            ),
        )
    return channel


class TestToneEquivalence:
    @pytest.mark.parametrize(("start", "end"), [
        (0.0, 0.1),      # window opens with the first arrivals
        (0.45, 0.55),    # mid-history
        (0.0, 2.2),      # the whole timeline in one window
        (1.93, 2.08),    # tail: mostly-ended tones, partial overlaps
        (3.0, 3.1),      # silence after every tone ended
        (0.5, 0.5),      # empty window
    ])
    def test_windows_match_reference(self, start, end):
        _assert_paths_match(busy_channel(), LISTENER, start, end)

    def test_with_echo_taps(self):
        channel = busy_channel(echo_taps=((0.013, 9.0), (0.031, 14.0)))
        for start, end in [(0.0, 0.1), (0.7, 0.85), (1.9, 2.3)]:
            _assert_paths_match(channel, LISTENER, start, end)

    def test_without_propagation_delay(self):
        channel = busy_channel(enable_propagation_delay=False)
        _assert_paths_match(channel, LISTENER, 0.2, 0.5)

    def test_colocated_emitter_and_listener(self):
        channel = AcousticChannel()
        channel.play_tone(0.0, ToneSpec(440.0, 0.2, 65.0), Position())
        _assert_paths_match(channel, Position(), 0.0, 0.25)

    def test_distant_emitter_long_flight(self):
        """A tone half a simulated football pitch away arrives late;
        the interval index must not drop it while it is in flight."""
        channel = AcousticChannel()
        channel.play_tone(0.0, ToneSpec(700.0, 0.1, 80.0),
                          Position(50.0, 0.0, 0.0))
        flight = 50.0 / 343.0
        window = _assert_paths_match(
            channel, Position(), flight, flight + 0.1
        )
        assert window.rms() > 0.0

    def test_out_of_order_scheduling(self):
        """Tones scheduled in arbitrary time order render identically
        (the index sorts; the reference iterates insertion order)."""
        channel = AcousticChannel()
        for start in [1.0, 0.1, 0.55, 0.2, 0.9, 0.0]:
            channel.play_tone(start, ToneSpec(500.0 + 400.0 * start, 0.3, 65.0),
                              Position(0.5 + start, 0.0, 0.0))
        for window in [(0.0, 0.4), (0.3, 0.8), (0.9, 1.5)]:
            _assert_paths_match(channel, LISTENER, *window)


class TestBusyWindowIdentity:
    """Many overlapping segments of different lengths in one window,
    each tone with two echo taps, under a fault model that mutes some
    emitters and degrades others: every sample of the fast path must
    equal the reference loop's."""

    def _faulted_busy_channel(self):
        channel = busy_channel(echo_taps=((0.013, 9.0), (0.031, 14.0)))
        air = FaultHarness(Simulator(), seed=5).acoustic(channel)
        positions = sorted({tone.position for tone in channel.scheduled_tones},
                           key=lambda p: (p.x, p.y))
        for position in positions[::4]:
            air.drop_speaker(position, 0.3, 1.1)
        for position in positions[1::3]:
            air.degrade_speaker(position, 0.0, 2.0, loss_db=7.5)
        return channel

    @pytest.mark.parametrize(("start", "end"), [
        (0.0, 0.05), (0.3, 0.35), (0.62, 0.7), (1.0, 1.25), (1.5, 1.55),
    ])
    def test_faulted_echo_windows_are_bit_identical(self, start, end):
        _assert_paths_match(self._faulted_busy_channel(), LISTENER, start, end)

    def test_fifty_ms_sweep_is_bit_identical(self):
        channel = busy_channel(echo_taps=((0.013, 9.0),))
        for tick in range(40):
            _assert_paths_match(channel, LISTENER, tick * 0.05,
                                (tick + 1) * 0.05)


class TestSeams:
    def test_consecutive_windows_concatenate_bit_identically(self):
        """Polling [0, 2) as twenty 100 ms windows must equal the one
        long render bit-for-bit — the invariant that lets a controller
        poll instead of rendering whole experiments."""
        channel = busy_channel(echo_taps=((0.013, 9.0),))
        rng = np.random.default_rng(11)
        channel.add_noise(white_noise(0.7, 48.0, rng=rng),
                          Position(2.0, 1.0, 0.0), loop=True)
        channel.add_noise(white_noise(0.9, 52.0, rng=rng),
                          Position(1.0, -1.0, 0.0), loop=False)
        whole = channel.render_at(LISTENER, 0.0, 2.0)
        stitched = np.concatenate([
            channel.render_at(LISTENER, tick * 0.1, (tick + 1) * 0.1).samples
            for tick in range(20)
        ])
        np.testing.assert_array_equal(whole.samples, stitched)

    def test_seams_with_odd_window_lengths(self):
        channel = busy_channel()
        whole = channel.render_at(LISTENER, 0.0, 0.3)
        parts = np.concatenate([
            channel.render_at(LISTENER, 0.0, 0.13).samples,
            channel.render_at(LISTENER, 0.13, 0.3).samples,
        ])
        np.testing.assert_array_equal(whole.samples, parts)


class TestNoiseBedEquivalence:
    @pytest.mark.parametrize("loop", [True, False])
    def test_beds_match_reference(self, loop, rng):
        channel = AcousticChannel()
        channel.add_noise(white_noise(0.5, 55.0, rng=rng),
                          Position(3.0, 0.0, 0.0), loop=loop)
        for window in [(0.0, 0.1), (0.3, 0.6), (0.8, 1.0)]:
            _assert_paths_match(channel, Position(), *window)

    def test_non_loop_bed_respects_propagation_delay(self, rng):
        """A one-shot bed 34.3 m away must arrive ~100 ms late, like a
        tone from the same rack would."""
        channel = AcousticChannel()
        channel.add_noise(white_noise(0.2, 60.0, rng=rng),
                          Position(34.3, 0.0, 0.0), loop=False)
        prompt = _assert_paths_match(channel, Position(), 0.0, 0.09)
        delayed = _assert_paths_match(channel, Position(), 0.1, 0.2)
        assert prompt.rms() == 0.0
        assert delayed.rms() > 0.0

    def test_non_loop_bed_delay_disabled(self, rng):
        channel = AcousticChannel(enable_propagation_delay=False)
        channel.add_noise(white_noise(0.2, 60.0, rng=rng),
                          Position(34.3, 0.0, 0.0), loop=False)
        prompt = _assert_paths_match(channel, Position(), 0.0, 0.09)
        assert prompt.rms() > 0.0

    def test_loop_bed_keeps_phase_free_approximation(self, rng):
        """Looping ambience is diffuse: it ignores propagation delay
        (the documented asymmetry), so a distant looping bed is only
        attenuated, never shifted."""
        bed = white_noise(0.5, 60.0, rng=rng)
        near = AcousticChannel()
        near.add_noise(bed, Position(1.0, 0.0, 0.0), loop=True)
        far = AcousticChannel()
        far.add_noise(bed, Position(10.0, 0.0, 0.0), loop=True)
        near_window = near.render_at(Position(), 0.0, 0.2)
        far_window = far.render_at(Position(), 0.0, 0.2)
        gain = 10.0 ** (-20.0 / 20.0)  # 10 m vs 1 m: exactly -20 dB
        np.testing.assert_allclose(
            far_window.samples, near_window.samples * gain, atol=TOLERANCE
        )


class TestPruneEquivalence:
    def test_pruned_history_renders_identically(self):
        """Prune drops only tones that cannot reach any window at or
        after the cutoff, so fast and reference stay equal after it."""
        channel = busy_channel(echo_taps=((0.05, 6.0),))
        reference_before = channel.render_at_reference(LISTENER, 2.5, 2.7)
        channel.prune(before=2.5, margin=0.1)
        window = _assert_paths_match(channel, LISTENER, 2.5, 2.7)
        np.testing.assert_array_equal(
            window.samples, reference_before.samples
        )

    def test_prune_keeps_audible_echo_tail(self):
        """A tone whose *emission* ended before the cutoff but whose
        echo is still ringing must survive the prune (the old
        end-time-only rule dropped it and the echo vanished)."""
        channel = AcousticChannel(echo_taps=((0.08, 6.0),))
        channel.play_tone(0.0, ToneSpec(1000.0, 0.1, 70.0),
                          Position(0.5, 0.0, 0.0))
        echo_window = (0.15, 0.19)   # only the echo is sounding here
        before = channel.render_at(Position(), *echo_window)
        assert before.rms() > 0.0
        dropped = channel.prune(before=0.15, margin=0.0)
        assert dropped == 0
        after = _assert_paths_match(channel, Position(), *echo_window)
        np.testing.assert_array_equal(before.samples, after.samples)

    def test_prune_still_drops_truly_dead_tones(self):
        channel = AcousticChannel(echo_taps=((0.08, 6.0),))
        channel.play_tone(0.0, ToneSpec(1000.0, 0.1, 70.0))
        channel.play_tone(30.0, ToneSpec(1100.0, 0.1, 70.0))
        assert channel.prune(before=20.0, margin=1.0) == 1
        frequencies = [t.spec.frequency for t in channel.scheduled_tones]
        assert frequencies == [1100.0]


class TestWindowMemo:
    def test_repeated_render_hits_memo(self):
        channel = busy_channel()
        first = channel.render_at(LISTENER, 0.2, 0.3)
        again = channel.render_at(LISTENER, 0.2, 0.3)
        assert again.samples is first.samples
        assert channel.render_cache_hits >= 1

    def test_play_tone_invalidates_memo(self):
        channel = busy_channel()
        stale = channel.render_at(LISTENER, 0.2, 0.3)
        channel.play_tone(0.2, ToneSpec(2500.0, 0.1, 70.0),
                          Position(0.5, 0.0, 0.0))
        fresh = _assert_paths_match(channel, LISTENER, 0.2, 0.3)
        assert not np.array_equal(fresh.samples, stale.samples)

    def test_add_noise_invalidates_memo(self, rng):
        channel = busy_channel()
        stale = channel.render_at(LISTENER, 0.2, 0.3)
        channel.add_noise(white_noise(0.5, 55.0, rng=rng))
        fresh = _assert_paths_match(channel, LISTENER, 0.2, 0.3)
        assert not np.array_equal(fresh.samples, stale.samples)

    def test_clear_invalidates_memo(self):
        channel = busy_channel()
        channel.render_at(LISTENER, 0.2, 0.3)
        channel.clear()
        assert channel.render_at(LISTENER, 0.2, 0.3).rms() == 0.0

    def test_prune_invalidates_memo(self):
        channel = busy_channel()
        channel.render_at(LISTENER, 0.2, 0.3)
        hits = channel.render_cache_hits
        channel.prune(before=100.0, margin=0.0)
        _assert_paths_match(channel, LISTENER, 0.2, 0.3)
        assert channel.render_cache_hits == hits

    def test_memo_is_bounded(self):
        from repro.audio.channel import WINDOW_CACHE_SIZE

        channel = busy_channel()
        for tick in range(WINDOW_CACHE_SIZE + 40):
            channel.render_at(LISTENER, tick * 0.01, tick * 0.01 + 0.05)
        assert len(channel._window_cache) <= WINDOW_CACHE_SIZE

    def test_colocated_microphones_share_render(self):
        """Two capsules at one station: the air is mixed once; each
        capture differs only by per-seed self-noise."""
        channel = busy_channel()
        spot = Position(0.4, 0.0, 0.0)
        first = Microphone(spot, seed=1).record(channel, 0.2, 0.3)
        misses = channel.render_cache_misses
        second = Microphone(spot, seed=2).record(channel, 0.2, 0.3)
        assert channel.render_cache_misses == misses
        assert not np.array_equal(first.samples, second.samples)

    def test_repeated_record_is_deterministic(self):
        """The microphone self-noise memo must not change captures."""
        channel = busy_channel()
        microphone = Microphone(LISTENER, seed=5)
        first = microphone.record(channel, 0.2, 0.3)
        second = microphone.record(channel, 0.2, 0.3)
        np.testing.assert_array_equal(first.samples, second.samples)
