"""Unit tests for acoustic propagation and channel rendering."""

import numpy as np
import pytest

from repro.audio import (
    SPEED_OF_SOUND,
    AcousticChannel,
    AudioSignal,
    Position,
    ScheduledTone,
    SpectrumAnalyzer,
    ToneSpec,
    propagation_loss_db,
    white_noise,
)


class TestPosition:
    def test_distance(self):
        assert Position(3, 4, 0).distance_to(Position()) == pytest.approx(5.0)

    def test_distance_symmetric(self):
        a, b = Position(1, 2, 3), Position(-1, 0, 5)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))


class TestPropagationLoss:
    def test_reference_distance_is_zero_loss(self):
        assert propagation_loss_db(1.0) == pytest.approx(0.0)

    def test_inverse_square_slope(self):
        assert propagation_loss_db(2.0) == pytest.approx(6.02, abs=0.1)
        assert propagation_loss_db(10.0) == pytest.approx(20.0, abs=0.1)

    def test_close_range_clamped(self):
        """Inside 1 m there is no gain (loss floors at 0)."""
        assert propagation_loss_db(0.01) == 0.0


class TestScheduling:
    def test_rejects_negative_start(self, channel):
        with pytest.raises(ValueError):
            channel.play_tone(-1.0, ToneSpec(440, 0.1))

    def test_rejects_above_nyquist(self, channel):
        with pytest.raises(ValueError, match="Nyquist"):
            channel.play_tone(0.0, ToneSpec(9000, 0.1))

    def test_rejected_batch_leaves_no_state(self, channel):
        voices = [(ToneSpec(440, 0.1), Position(1, 0, 0)),
                  (ToneSpec(9000, 0.1), Position(2, 0, 0))]
        with pytest.raises(ValueError, match="Nyquist"):
            channel.play_tones([0.0, 0.5], voices, [0, 1])
        with pytest.raises(ValueError, match="non-negative"):
            channel.play_tones([0.0, -0.5], voices[:1])
        with pytest.raises(ValueError, match="voice ids"):
            channel.play_tones([0.0, 0.5], voices[:1], [0])
        assert channel.scheduled_tones == ()
        assert channel._positions == [] and channel._waves == []

    def test_batch_equals_one_row_calls(self, channel):
        """Rows keep their given order as schedule order, whatever
        their start times."""
        voices = [(ToneSpec(440, 0.1, 65.0), Position(1, 0, 0)),
                  (ToneSpec(880, 0.05), Position(0, 2, 0))]
        rows = [(0.5, 1), (0.1, 0), (0.5, 0), (0.2, 1)]
        channel.play_tones([start for start, _v in rows], voices,
                           [v for _start, v in rows])
        single = AcousticChannel()
        for start, v in rows:
            single.play_tone(start, *voices[v])
        records = tuple(ScheduledTone(start, *voices[v]) for start, v in rows)
        assert channel.scheduled_tones == single.scheduled_tones == records
        for window in [(0.0, 0.3), (0.45, 0.62)]:
            np.testing.assert_array_equal(
                channel.render_at(Position(), *window).samples,
                single.render_at(Position(), *window).samples,
            )

    def test_scheduled_tones_tracked(self, channel):
        channel.play_tone(1.0, ToneSpec(440, 0.1))
        channel.play_tone(2.0, ToneSpec(880, 0.1))
        assert len(channel.scheduled_tones) == 2

    def test_clear(self, channel, rng):
        channel.play_tone(0.0, ToneSpec(440, 0.1))
        channel.add_noise(white_noise(0.5, rng=rng))
        channel.clear()
        assert len(channel.scheduled_tones) == 0
        silence = channel.render_at(Position(), 0.0, 0.1)
        assert silence.rms() == 0.0

    def test_noise_rate_mismatch_rejected(self, channel):
        wrong_rate = AudioSignal(np.zeros(100), sample_rate=8000)
        with pytest.raises(ValueError):
            channel.add_noise(wrong_rate)

    def test_empty_noise_rejected(self, channel):
        with pytest.raises(ValueError):
            channel.add_noise(AudioSignal(np.zeros(0)))


class TestRendering:
    def test_tone_level_at_one_meter(self, channel, analyzer):
        channel.play_tone(0.0, ToneSpec(1000, 0.5, 70.0), Position(1, 0, 0))
        capture = channel.render_at(Position(), 0.1, 0.4)
        spectrum = analyzer.analyze(capture)
        assert spectrum.level_at(1000) == pytest.approx(70.0, abs=0.5)

    def test_distance_attenuation(self, channel, analyzer):
        channel.play_tone(0.0, ToneSpec(1000, 0.5, 70.0), Position(10, 0, 0))
        capture = channel.render_at(Position(), 0.1, 0.4)
        spectrum = analyzer.analyze(capture)
        assert spectrum.level_at(1000) == pytest.approx(50.0, abs=0.5)

    def test_silence_outside_tone_span(self, channel):
        channel.play_tone(1.0, ToneSpec(1000, 0.2, 70.0))
        before = channel.render_at(Position(), 0.0, 0.5)
        after = channel.render_at(Position(), 2.0, 2.5)
        assert before.rms() == 0.0
        assert after.rms() == 0.0

    def test_propagation_delay(self):
        """A tone 34.3 m away arrives ~100 ms late."""
        channel = AcousticChannel(enable_propagation_delay=True)
        distance = SPEED_OF_SOUND / 10.0
        channel.play_tone(0.0, ToneSpec(1000, 0.05, 80.0),
                          Position(distance, 0, 0))
        prompt = channel.render_at(Position(), 0.0, 0.05)
        delayed = channel.render_at(Position(), 0.1, 0.15)
        assert prompt.rms() == 0.0
        assert delayed.rms() > 0.0

    def test_delay_disabled(self):
        channel = AcousticChannel(enable_propagation_delay=False)
        channel.play_tone(0.0, ToneSpec(1000, 0.05, 80.0),
                          Position(34.3, 0, 0))
        prompt = channel.render_at(Position(), 0.0, 0.05)
        assert prompt.rms() > 0.0

    def test_windows_seam_exactly(self, channel):
        """Rendering [0, 1) in one window equals two half windows —
        the phase-continuity invariant that lets the controller poll."""
        channel.play_tone(0.1, ToneSpec(777, 0.6, 70.0), Position(0.5, 0, 0))
        whole = channel.render_at(Position(), 0.0, 1.0)
        first = channel.render_at(Position(), 0.0, 0.5)
        second = channel.render_at(Position(), 0.5, 1.0)
        stitched = np.concatenate([first.samples, second.samples])
        np.testing.assert_allclose(whole.samples, stitched, atol=1e-12)

    def test_multiple_emitters_superpose(self, channel, analyzer):
        channel.play_tone(0.0, ToneSpec(800, 0.5, 65.0), Position(1, 0, 0))
        channel.play_tone(0.0, ToneSpec(2400, 0.5, 65.0), Position(0, 1, 0))
        capture = channel.render_at(Position(), 0.1, 0.4)
        spectrum = analyzer.analyze(capture)
        assert spectrum.level_at(800) == pytest.approx(65.0, abs=1.0)
        assert spectrum.level_at(2400) == pytest.approx(65.0, abs=1.0)

    def test_rejects_reversed_window(self, channel):
        with pytest.raises(ValueError):
            channel.render_at(Position(), 1.0, 0.5)

    def test_empty_window(self, channel):
        capture = channel.render_at(Position(), 1.0, 1.0)
        assert len(capture) == 0


class TestNoiseBeds:
    def test_looping_noise_covers_any_window(self, channel, rng):
        channel.add_noise(white_noise(0.5, level_db=50.0, rng=rng), loop=True)
        far_window = channel.render_at(Position(), 100.0, 100.2)
        assert far_window.level_db() == pytest.approx(50.0, abs=1.0)

    def test_non_looping_noise_ends(self, channel, rng):
        channel.add_noise(white_noise(0.5, level_db=50.0, rng=rng), loop=False)
        inside = channel.render_at(Position(), 0.0, 0.3)
        outside = channel.render_at(Position(), 1.0, 1.3)
        assert inside.rms() > 0
        assert outside.rms() == 0.0

    def test_noise_attenuates_with_distance(self, channel, rng):
        channel.add_noise(
            white_noise(0.5, level_db=60.0, rng=rng), Position(10, 0, 0)
        )
        capture = channel.render_at(Position(), 0.0, 0.4)
        assert capture.level_db() == pytest.approx(40.0, abs=1.0)


class TestPruning:
    def test_prune_drops_old_tones(self, channel):
        channel.play_tone(0.0, ToneSpec(1000, 0.1, 70.0))
        channel.play_tone(5.0, ToneSpec(1100, 0.1, 70.0))
        dropped = channel.prune(before=3.0, margin=1.0)
        assert dropped == 1
        remaining = [tone.spec.frequency for tone in channel.scheduled_tones]
        assert remaining == [1100]

    def test_prune_respects_margin(self, channel):
        channel.play_tone(0.0, ToneSpec(1000, 0.1, 70.0))
        assert channel.prune(before=0.5, margin=1.0) == 0
        assert channel.prune(before=2.0, margin=1.0) == 1

    def test_recent_audio_unaffected(self, channel, analyzer):
        channel.play_tone(0.0, ToneSpec(900, 0.1, 70.0))
        channel.play_tone(10.0, ToneSpec(1200, 0.3, 70.0))
        channel.prune(before=10.0)
        capture = channel.render_at(Position(), 10.05, 10.25)
        assert analyzer.analyze(capture).level_at(1200) > 60.0

    def test_prune_cutoff_includes_propagation_allowance(self):
        """Even without echo taps the keep-cutoff backs off by the
        room-scale propagation allowance, so a distant tone still in
        flight cannot be pruned mid-air."""
        from repro.audio.channel import PRUNE_PROPAGATION_ALLOWANCE

        channel = AcousticChannel()
        channel.play_tone(0.0, ToneSpec(1000, 0.1, 70.0))
        boundary = 0.1 + 1.0 + PRUNE_PROPAGATION_ALLOWANCE
        assert channel.prune(before=boundary - 0.01, margin=1.0) == 0
        assert channel.prune(before=boundary + 0.01, margin=1.0) == 1

    def test_prune_keeps_tone_with_live_echo(self):
        """Echo taps extend audibility past end_time; prune must not
        silence an echo that a capture still overlaps."""
        channel = AcousticChannel(echo_taps=((0.08, 6.0),))
        channel.play_tone(0.0, ToneSpec(1000, 0.1, 70.0),
                          Position(0.5, 0, 0))
        tail_before = channel.render_at(Position(), 0.15, 0.19)
        assert tail_before.rms() > 0.0
        assert channel.prune(before=0.15, margin=0.0) == 0
        tail_after = channel.render_at(Position(), 0.15, 0.19)
        np.testing.assert_array_equal(tail_before.samples,
                                      tail_after.samples)

    def test_long_run_stays_bounded(self):
        """A controller running for a long stretch keeps the channel's
        tone list bounded via its periodic prune."""
        from repro.core import MDNController
        from repro.core.agent import MusicAgent
        from repro.audio import Microphone, Speaker
        from repro.net import Simulator

        sim = Simulator()
        channel = AcousticChannel()
        agent = MusicAgent(sim, channel, Speaker(Position(0.5, 0, 0)))
        controller = MDNController(sim, channel, Microphone(Position()),
                                   listen_interval=0.1, prune_every=50,
                                   prune_margin=2.0)
        controller.watch([1000.0], on_detection=lambda e: None)
        controller.start()
        sim.every(0.2, lambda: agent.play(1000.0, 0.05, 65.0))
        sim.run(60.0)  # 300 tones emitted over the run
        assert len(channel.scheduled_tones) < 40
