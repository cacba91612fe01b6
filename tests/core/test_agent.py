"""Unit tests for the MusicAgent (the Pi + speaker)."""

import pytest

from repro.audio import AcousticChannel, DeviceCapabilityError, Position, Speaker
from repro.core import MusicProtocolMessage
from repro.core.agent import MusicAgent, play_schedules
from repro.net import Simulator


@pytest.fixture
def agent():
    sim = Simulator()
    channel = AcousticChannel()
    speaker = Speaker(Position(0.5, 0, 0))
    return sim, channel, MusicAgent(sim, channel, speaker, "s1")


class TestPlayback:
    def test_tone_scheduled_at_now(self, agent):
        sim, channel, music_agent = agent
        sim.run(2.0)
        assert music_agent.play(1000, 0.05, 70)
        tone = channel.scheduled_tones[0]
        assert tone.start_time == 2.0
        assert tone.spec.frequency == 1000

    def test_handle_message(self, agent):
        _sim, channel, music_agent = agent
        message = MusicProtocolMessage(880, 0.06, 65)
        assert music_agent.handle_message(message)
        assert channel.scheduled_tones[0].spec.frequency == 880

    def test_handle_wire(self, agent):
        _sim, channel, music_agent = agent
        wire = MusicProtocolMessage(700, 0.05, 60).marshal()
        assert music_agent.handle_wire(wire)
        assert channel.scheduled_tones[0].spec.frequency == 700

    def test_speaker_envelope_enforced(self, agent):
        _sim, channel, music_agent = agent
        with pytest.raises(DeviceCapabilityError):
            music_agent.play(1000, 0.001, 70)  # below 30 ms minimum
        assert len(channel.scheduled_tones) == 0

    def test_counters(self, agent):
        _sim, _channel, music_agent = agent
        music_agent.play(1000, 0.05, 70)
        assert music_agent.played.total == 1


class TestBusyPolicy:
    def test_drop_policy_discards_overlap(self, agent):
        sim, channel, music_agent = agent
        assert music_agent.play(1000, 0.2, 70)
        assert not music_agent.play(2000, 0.2, 70)  # still busy
        assert music_agent.dropped.total == 1
        assert len(channel.scheduled_tones) == 1

    def test_speaker_free_after_tone(self, agent):
        sim, _channel, music_agent = agent
        music_agent.play(1000, 0.1, 70)
        assert music_agent.is_busy
        sim.run(0.15)
        assert not music_agent.is_busy
        assert music_agent.play(2000, 0.1, 70)

    def test_queue_policy_serializes(self):
        sim = Simulator()
        channel = AcousticChannel()
        music_agent = MusicAgent(sim, channel, Speaker(), busy_policy="queue")
        music_agent.play(1000, 0.2, 70)
        music_agent.play(2000, 0.2, 70)
        tones = channel.scheduled_tones
        assert len(tones) == 2
        assert tones[1].start_time == pytest.approx(0.2)

    def test_unknown_policy_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            MusicAgent(sim, AcousticChannel(), Speaker(), busy_policy="mix")


#: The tone most schedules below play.
TONE = MusicProtocolMessage(1000, 0.05, 70)


class TestSchedules:
    def test_schedule_plays_like_per_tone_calls(self, agent):
        sim, channel, music_agent = agent
        play_schedules([(music_agent, [0.1, 0.3, 0.5], TONE)])
        assert music_agent.played.total == 3
        assert [t.start_time for t in channel.scheduled_tones] == \
            [0.1, 0.3, 0.5]
        assert {t.spec for t in channel.scheduled_tones} == \
            {TONE.to_tone_spec()}
        # The batch left nothing on the sim heap.
        assert sim.pending_events() == 0

    def test_rows_that_the_busy_rule_would_drop_are_refused(self, agent):
        sim, channel, music_agent = agent
        for starts in ([0.1, 0.12], [0.3, 0.1], [0.1, 0.1]):
            with pytest.raises(ValueError, match="free"):
                play_schedules([(music_agent, starts, TONE)])
        sim.run(1.0)
        with pytest.raises(ValueError, match="free"):
            play_schedules([(music_agent, [0.5], TONE)])  # in the past
        music_agent.play(1000, 0.2, 70)
        with pytest.raises(ValueError, match="free"):
            play_schedules([(music_agent, [1.1], TONE)])  # busy
        assert len(channel.scheduled_tones) == 1
        assert music_agent.played.total == 1

    def test_back_to_back_rows_are_accepted(self, agent):
        _sim, channel, music_agent = agent
        play_schedules([(music_agent, [0.0, 0.05, 0.1], TONE)])
        assert len(channel.scheduled_tones) == 3

    def test_speaker_envelope_enforced_once(self, agent):
        _sim, channel, music_agent = agent
        with pytest.raises(DeviceCapabilityError):
            play_schedules([(music_agent, [0.1, 0.5],
                             MusicProtocolMessage(1000, 0.001, 70))])
        assert len(channel.scheduled_tones) == 0

    def test_a_schedule_reserves_the_speaker(self, agent):
        sim, _channel, music_agent = agent
        play_schedules([(music_agent, [0.5, 1.0], TONE)])
        assert music_agent.is_busy
        with pytest.raises(RuntimeError, match="reserved"):
            music_agent.play(2000, 0.05, 70)
        sim.run(1.05)
        assert not music_agent.is_busy
        assert music_agent.play(2000, 0.05, 70)

    def test_a_failing_row_plays_nothing_for_any_agent(self):
        sim, channel = Simulator(), AcousticChannel()
        first = MusicAgent(sim, channel, Speaker(Position(1, 0, 0)), "a")
        second = MusicAgent(sim, channel, Speaker(Position(0, 1, 0)), "b")
        tone = MusicProtocolMessage(1000, 0.05, 70)
        with pytest.raises(ValueError):
            play_schedules([(first, [0.1], tone), (second, [0.2, 0.21], tone)])
        assert channel.scheduled_tones == ()
        assert first.played.total == second.played.total == 0
        assert not first.is_busy

    def test_agents_must_be_distinct_and_share_a_channel(self):
        sim = Simulator()
        tone = MusicProtocolMessage(1000, 0.05, 70)
        one = MusicAgent(sim, AcousticChannel(), Speaker(), "a")
        other = MusicAgent(sim, AcousticChannel(), Speaker(), "b")
        with pytest.raises(ValueError, match="one channel"):
            play_schedules([(one, [0.1], tone), (other, [0.1], tone)])
        with pytest.raises(ValueError, match="one schedule"):
            play_schedules([(one, [0.1], tone), (one, [0.5], tone)])
