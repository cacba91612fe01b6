"""Equivalence suite: vectorized channel rendering vs the scalar loop.

``AcousticChannel.render_at`` (columnar tone index + wave bank) must
reproduce ``render_reference`` (the original per-tone scalar loop,
``tests/audio/reference_render.py``) bit for bit across window seams,
echo taps, partial overlaps, speaker outages, pruned histories,
generated scenes, and loop/non-loop noise beds: both paths
evaluate the same IEEE operations per sample and sum overlapping
segments in the same (tone, tap) order.  The tone index and the wave
bank must also stay bounded by the live tones over a long run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audio import (
    DEFAULT_SAMPLE_RATE,
    AcousticChannel,
    Microphone,
    Position,
    ToneSpec,
    white_noise,
)
from repro import obs
from repro.faults import FaultHarness
from repro.net.sim import Simulator
from tests.audio.reference_render import render_reference

TOLERANCE = 1e-9

LISTENER = Position(0.3, 0.1, 0.0)


def _assert_paths_match(channel, listener, start, end):
    fast = channel.render_at(listener, start, end)
    reference = render_reference(channel, listener, start, end)
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


class TestParkedSchedule:
    def test_future_rows_bisect_away(self):
        """Ten thousand rows parked in the future: an early window scans
        only the rows that can reach it and still equals the loop."""
        registry, _tracer = obs.enable()
        try:
            channel = AcousticChannel(echo_taps=((0.013, 9.0),))
            voices = [(ToneSpec(420.0 + 120.0 * k, 0.03, 70.0),
                       Position(0.5 + 0.1 * k, 0.2, 0.0)) for k in range(50)]
            starts = np.repeat(np.arange(200) * 0.1, 50)
            channel.play_tones(starts, voices, np.tile(np.arange(50), 200))
            _assert_paths_match(channel, LISTENER, 0.1, 0.1 + 1 / 30)
            scanned = registry.get("channel.tones_scanned").value
            bisected = registry.get("channel.tones_bisected_past").value
        finally:
            obs.disable()
        assert scanned <= 100
        assert scanned + bisected == 10_000


class TestBusyWindowIdentity:
    """Many overlapping segments of different lengths in one window,
    each tone with two echo taps, with some emitters muted by an
    outage: every sample of the fast path must equal the reference
    loop's."""

    def _faulted_busy_channel(self):
        channel = busy_channel(echo_taps=((0.013, 9.0), (0.031, 14.0)))
        air = FaultHarness(Simulator(), seed=5).acoustic(channel)
        positions = sorted({tone.position for tone in channel.scheduled_tones},
                           key=lambda p: (p.x, p.y))
        for position in positions[::4]:
            air.drop_speaker(position, 0.3, 1.1)
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
        reference_before = render_reference(channel, LISTENER, 2.5, 2.7)
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
    """Every change to the air bumps ``mutations`` and the next render
    follows it.  (The ids name the window memo the channel once kept;
    every window is now rendered afresh.)"""

    def test_play_tone_invalidates_memo(self):
        channel = busy_channel()
        before = channel.render_at(LISTENER, 0.2, 0.3)
        mutations = channel.mutations
        channel.play_tone(0.2, ToneSpec(2500.0, 0.1, 70.0),
                          Position(0.5, 0.0, 0.0))
        assert channel.mutations > mutations
        after = _assert_paths_match(channel, LISTENER, 0.2, 0.3)
        assert not np.array_equal(after.samples, before.samples)

    def test_add_noise_invalidates_memo(self, rng):
        channel = busy_channel()
        before = channel.render_at(LISTENER, 0.2, 0.3)
        mutations = channel.mutations
        channel.add_noise(white_noise(0.5, 55.0, rng=rng))
        assert channel.mutations > mutations
        after = _assert_paths_match(channel, LISTENER, 0.2, 0.3)
        assert not np.array_equal(after.samples, before.samples)

    def test_clear_invalidates_memo(self):
        channel = busy_channel()
        channel.render_at(LISTENER, 0.2, 0.3)
        mutations = channel.mutations
        channel.clear()
        assert channel.mutations > mutations
        assert _assert_paths_match(channel, LISTENER, 0.2, 0.3).rms() == 0.0

    def test_prune_invalidates_memo(self):
        channel = busy_channel()
        channel.render_at(LISTENER, 0.2, 0.3)
        mutations = channel.mutations
        channel.prune(before=100.0, margin=0.0)
        assert channel.mutations > mutations
        _assert_paths_match(channel, LISTENER, 0.2, 0.3)

    def test_colocated_microphones_share_render(self):
        """Two capsules at one station hear the same air: their
        captures differ only by per-seed self-noise."""
        channel = busy_channel()
        spot = Position(0.4, 0.0, 0.0)
        air = channel.render_at(spot, 0.2, 0.3).samples
        quiet = AcousticChannel()
        captures = []
        for seed in (1, 2):
            microphone = Microphone(spot, seed=seed)
            capture = microphone.record(channel, 0.2, 0.3).samples
            self_noise = microphone.record(quiet, 0.2, 0.3).samples
            np.testing.assert_allclose(capture - air, self_noise, atol=1e-12)
            captures.append(capture)
        assert not np.array_equal(*captures)

    def test_repeated_record_is_deterministic(self):
        """The microphone self-noise memo must not change captures."""
        channel = busy_channel()
        microphone = Microphone(LISTENER, seed=5)
        first = microphone.record(channel, 0.2, 0.3)
        second = microphone.record(channel, 0.2, 0.3)
        np.testing.assert_array_equal(first.samples, second.samples)


# ----------------------------------------------------------------------
# Generated scenes
# ----------------------------------------------------------------------

#: A few plan-grid frequencies, so drawn scenes repeat wave types.
REPEATED_FREQUENCIES = (500.0, 720.0, 1260.0)

SCENE_POSITIONS = (
    Position(0.0, 0.0, 0.0),
    Position(2.3, -0.7, 0.0),
    Position(-5.1, 3.9, 1.2),
)


def _times(low, high):
    """Arbitrary floats, and half-sample instants (which make the
    scalar loop's ``round`` land exactly on .5)."""
    rate = DEFAULT_SAMPLE_RATE
    return st.one_of(
        st.floats(low, high),
        st.integers(int(low * 2 * rate), int(high * 2 * rate)).map(
            lambda k: k / (2 * rate)),
    )


tone_strategy = st.tuples(
    _times(0.0, 1.5),                                       # start
    st.one_of(st.sampled_from(REPEATED_FREQUENCIES),
              st.floats(100.0, 7000.0)),                    # frequency
    st.floats(0.03, 0.5),                                   # duration
    st.floats(50.0, 75.0),                                  # level
    st.integers(0, 2),                                      # emitter
)

step_strategy = st.one_of(
    st.tuples(st.just("render"), st.integers(0, 2),         # listener
              _times(0.0, 2.2), st.floats(0.0, 0.2)),       # start, span
    st.tuples(st.just("prune"), st.floats(0.0, 2.5),        # before
              st.floats(0.0, 0.5)),                         # margin
)

fault_strategy = st.lists(
    st.tuples(st.integers(0, 2), st.floats(0.0, 1.5), st.floats(0.05, 1.0)),
    max_size=3,
)


class TestGeneratedScenes:
    @settings(max_examples=100, deadline=None)
    @given(
        tones=st.lists(tone_strategy, min_size=1, max_size=12),
        steps=st.lists(step_strategy, min_size=1, max_size=8),
        faults=fault_strategy,
        emitters=st.integers(1, 3),
        listeners=st.integers(1, 3),
        echo_taps=st.lists(st.tuples(st.floats(0.001, 0.05),
                                     st.floats(0.0, 20.0)), max_size=2),
        delay=st.booleans(),
    )
    def test_render_equals_reference(self, tones, steps, faults, emitters,
                                     listeners, echo_taps, delay):
        """Any scene — out-of-order schedules, repeated and distinct
        wave types, 1–3 emitters and listeners, echoes and propagation
        delay on or off, muted speakers, prunes between
        renders, windows at unaligned starts — renders bit-identically
        to the scalar reference loop."""
        channel = AcousticChannel(enable_propagation_delay=delay,
                                  echo_taps=tuple(echo_taps))
        for start, frequency, duration, level, emitter in tones:
            channel.play_tone(start, ToneSpec(frequency, duration, level),
                              SCENE_POSITIONS[emitter % emitters])
        air = FaultHarness(Simulator(), seed=3).acoustic(channel)
        for emitter, start, span in faults:
            air.drop_speaker(SCENE_POSITIONS[emitter % emitters], start,
                             start + span)
        for step in steps:
            if step[0] == "prune":
                channel.prune(before=step[1], margin=step[2])
                continue
            _kind, listener, start, span = step
            _assert_paths_match(channel, SCENE_POSITIONS[listener % listeners],
                                start, start + span)


mute_step_strategy = st.one_of(
    st.tuples(st.just("play"), tone_strategy),
    st.tuples(st.just("drop"), st.integers(0, 2),          # emitter
              _times(0.0, 1.5), st.floats(0.01, 0.6)),      # start, span
    # An outage that ends where a live tone starts, or starts where it
    # ends: the half-open edges must keep that tone.
    st.tuples(st.just("abut"), st.integers(0, 15),         # tone
              st.floats(0.01, 0.6), st.booleans()),         # span, before
    step_strategy,
)


class TestMuteAtEmission:
    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(mute_step_strategy, min_size=1, max_size=16),
           echo_taps=st.lists(st.tuples(st.floats(0.001, 0.05),
                                        st.floats(0.0, 20.0)), max_size=1))
    def test_outages_take_exactly_the_overlapping_tones(self, steps,
                                                        echo_taps):
        """Twin channels get the same tones and prunes; one also gets
        speaker outages, recorded before or after the tones they hit.
        After every step the faulted twin schedules the unfaulted
        twin's tones minus exactly those whose emission overlaps an
        outage of their emitter, counts each such tone once, and
        renders bit-identically to the scalar reference loop."""
        plain = AcousticChannel(echo_taps=tuple(echo_taps))
        faulted = AcousticChannel(echo_taps=tuple(echo_taps))
        harness = FaultHarness(Simulator(), seed=3)
        air = harness.acoustic(faulted)
        outages = []
        # Muted tones that a prune took from the plain twin only.
        pruned_muted = 0
        for step in steps:
            if step[0] == "play":
                start, frequency, duration, level, emitter = step[1]
                for channel in (plain, faulted):
                    channel.play_tone(start, ToneSpec(frequency, duration,
                                                      level),
                                      SCENE_POSITIONS[emitter])
            elif step[0] in ("drop", "abut"):
                if step[0] == "drop":
                    _kind, emitter, start, span = step
                    outage = (SCENE_POSITIONS[emitter], start, start + span)
                else:
                    _kind, pick, span, before = step
                    live = plain.scheduled_tones
                    if not live:
                        continue
                    tone = live[pick % len(live)]
                    outage = ((tone.position, tone.start_time - span,
                               tone.start_time) if before else
                              (tone.position, tone.end_time,
                               tone.end_time + span))
                air.drop_speaker(*outage)
                outages.append(outage)
            elif step[0] == "prune":
                pruned_muted += (plain.prune(before=step[1], margin=step[2])
                                 - faulted.prune(before=step[1],
                                                 margin=step[2]))
            else:
                _kind, listener, start, span = step
                _assert_paths_match(faulted, SCENE_POSITIONS[listener],
                                    start, start + span)
            kept = tuple(
                tone for tone in plain.scheduled_tones
                if not any(tone.position == position
                           and tone.start_time < end and tone.end_time > start
                           for position, start, end in outages))
            assert faulted.scheduled_tones == kept
            assert harness.summary()["tones_muted"] == (
                len(plain.scheduled_tones) - len(kept) + pruned_muted)


class TestBoundedState:
    def test_an_hour_of_new_frequencies_stays_bounded(self):
        """An hour of simulated time in which every chirp plays a
        frequency never heard before, pruned every 20 s as the
        controller does: the tone index, the positions, the wave types
        and the wave bank stay bounded by the tones played since the
        last prune, not by the hour's history."""
        channel = AcousticChannel()
        emitters = [Position(0.5 + 0.1 * i, 0.0, 0.0) for i in range(4)]
        bank_peak = index_peak = 0
        for second in range(3600):
            channel.play_tone(second + 0.25,
                              ToneSpec(300.0 + second * 1.5, 0.03, 65.0),
                              emitters[second % 4])
            channel.render_at(Position(), second, second + 1.0)
            if second % 20 == 19:
                bank_peak = max(bank_peak, channel._bank.shape[1])
                index_peak = max(index_peak, channel._count)
                channel.prune(before=second, margin=1.0)
                live = len(channel.scheduled_tones)
                assert channel._count == live <= 3
                assert len(channel._wave_ids) == live
                assert len(channel._position_ids) <= live
        # Every tone was its own 480-sample wave type: 20 of them
        # between prunes, against 3,600 in the hour's history.
        assert index_peak <= 22
        assert bank_peak <= 22 * 480
        assert channel._index.shape[1] <= 64
