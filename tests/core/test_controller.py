"""Unit tests for the MDN controller's listen loop."""

import pytest

from repro.audio import AcousticChannel, Microphone, Position, Speaker
from repro.core import MDNController, MicrophoneArray
from repro.core.agent import MusicAgent
from repro.net import Simulator


@pytest.fixture
def rig():
    sim = Simulator()
    channel = AcousticChannel()
    agent = MusicAgent(sim, channel, Speaker(Position(0.5, 0, 0)), "s1")
    microphone = Microphone(Position(), seed=3)
    controller = MDNController(sim, channel, microphone, listen_interval=0.1)
    return sim, agent, controller


class TestLifecycle:
    def test_start_requires_watches(self, rig):
        _sim, _agent, controller = rig
        with pytest.raises(RuntimeError, match="watch"):
            controller.start()

    def test_watch_requires_callback(self, rig):
        _sim, _agent, controller = rig
        with pytest.raises(ValueError):
            controller.watch([1000])

    def test_watch_after_start_rejected(self, rig):
        _sim, _agent, controller = rig
        controller.watch([1000], on_detection=lambda e: None)
        controller.start()
        with pytest.raises(RuntimeError):
            controller.watch([2000], on_detection=lambda e: None)

    def test_double_start_rejected(self, rig):
        _sim, _agent, controller = rig
        controller.watch([1000], on_detection=lambda e: None)
        controller.start()
        with pytest.raises(RuntimeError):
            controller.start()

    def test_invalid_interval(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            MDNController(sim, AcousticChannel(), Microphone(),
                          listen_interval=0)

    def test_stop_halts_listening(self, rig):
        sim, _agent, controller = rig
        controller.watch([1000], on_detection=lambda e: None)
        controller.start()
        sim.run(0.5)
        controller.stop()
        processed = controller.windows_processed
        sim.run(1.0)
        assert controller.windows_processed == processed


class TestDispatch:
    def test_detection_fires_per_window(self, rig):
        sim, agent, controller = rig
        hits = []
        controller.watch([1000], on_detection=hits.append)
        controller.start()
        sim.schedule_at(0.2, lambda: agent.play(1000, 0.35, 72))
        sim.run(1.0)
        # A 350 ms tone spans 3-4 consecutive 100 ms windows.
        assert 3 <= len(hits) <= 4

    @pytest.mark.parametrize("listener", ["controller", "array"])
    def test_stop_start_round_trip_fires_fresh_onset(self, rig, listener):
        """Regression: ``stop()`` must clear the onset-suppression set.
        A tone sustained across a stop/restart is news to the restarted
        listener and must fire an onset on the first post-restart
        window — the stale ``_previous_window`` used to swallow it.  A
        one-station array runs the same loop and must behave the same."""
        sim, agent, controller = rig
        if listener == "array":
            controller = MicrophoneArray(sim, controller.channel,
                                         {"m": controller.microphone})
        onsets = []
        controller.watch([1000], on_onset=onsets.append)
        controller.start()
        sim.schedule_at(0.15, lambda: agent.play(1000, 2.5, 72))
        sim.run(0.5)
        assert len(onsets) == 1  # heard once while running
        controller.stop()
        controller.start()
        sim.run(1.0)  # tone still playing on restart
        assert len(onsets) == 2

    def test_onset_fires_once_per_tone(self, rig):
        sim, agent, controller = rig
        onsets = []
        controller.watch([1000], on_onset=onsets.append)
        controller.start()
        sim.schedule_at(0.2, lambda: agent.play(1000, 0.35, 72))
        sim.schedule_at(1.0, lambda: agent.play(1000, 0.35, 72))
        sim.run(2.0)
        assert len(onsets) == 2

    def test_unwatched_frequency_ignored(self, rig):
        sim, agent, controller = rig
        hits = []
        controller.watch([2000], on_detection=hits.append)
        controller.start()
        sim.schedule_at(0.2, lambda: agent.play(1000, 0.3, 72))
        sim.run(1.0)
        assert hits == []

    def test_multiple_subscribers_same_frequency(self, rig):
        sim, agent, controller = rig
        first, second = [], []
        controller.watch([1000], on_detection=first.append)
        controller.watch([1000], on_detection=second.append)
        controller.start()
        sim.schedule_at(0.2, lambda: agent.play(1000, 0.3, 72))
        sim.run(1.0)
        assert len(first) == len(second) > 0

    def test_window_callback_sees_all_events(self, rig):
        sim, agent, controller = rig
        windows = []
        controller.watch([1000, 1500], on_detection=lambda e: None)
        controller.on_window(lambda events, time: windows.append((time, len(events))))
        controller.start()
        sim.schedule_at(0.25, lambda: agent.play(1000, 0.1, 72))
        sim.run(1.0)
        assert len(windows) == 10  # every window reported
        assert any(count > 0 for _t, count in windows)

    def test_event_time_is_window_start(self, rig):
        sim, agent, controller = rig
        events = []
        controller.watch([1000], on_onset=events.append)
        controller.start()
        sim.schedule_at(0.42, lambda: agent.play(1000, 0.2, 72))
        sim.run(1.0)
        assert events
        # Tone starts at 0.42 -> first window containing it is [0.4, 0.5).
        assert events[0].time == pytest.approx(0.4, abs=0.0501)

    def test_goertzel_backend(self):
        sim = Simulator()
        channel = AcousticChannel()
        agent = MusicAgent(sim, channel, Speaker(Position(0.5, 0, 0)))
        controller = MDNController(sim, channel, Microphone(Position()),
                                   listen_interval=0.1, backend="goertzel")
        onsets = []
        controller.watch([1200], on_onset=onsets.append)
        controller.start()
        sim.schedule_at(0.3, lambda: agent.play(1200, 0.2, 72))
        sim.run(1.0)
        assert len(onsets) == 1

    def test_flow_mod_without_channel_rejected(self, rig):
        _sim, _agent, controller = rig
        from repro.net import Action, FlowMod, Match
        with pytest.raises(RuntimeError):
            controller.send_flow_mod("s1", FlowMod(Match(), Action.drop()))
