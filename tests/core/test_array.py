"""Tests for the microphone array (§8 extension)."""

import pytest

from repro.audio import (
    AcousticChannel,
    FrequencyDetector,
    Microphone,
    Position,
    Speaker,
    ToneSpec,
)
from repro.core import FrequencyPlan, MicrophoneArray
from repro.core.apps import BandToneMap, QueueMonitorApp
from repro.net import Simulator


@pytest.fixture
def far_groups():
    """Two switch groups 80 m apart, a station at each, plan blocks
    per group."""
    sim = Simulator()
    channel = AcousticChannel()
    plan = FrequencyPlan(low_hz=700.0, guard_hz=40.0)
    group_a = plan.allocate("groupA", 2)
    group_b = plan.allocate("groupB", 2)
    speaker_a = Speaker(Position(0.0, 0.0, 0.0))
    speaker_b = Speaker(Position(80.0, 0.0, 0.0))
    stations = {
        "station-a": Microphone(Position(1.0, 0.0, 0.0), seed=21),
        "station-b": Microphone(Position(79.0, 0.0, 0.0), seed=22),
    }
    return sim, channel, plan, group_a, group_b, speaker_a, speaker_b, stations


class TestValidation:
    def test_requires_stations(self):
        with pytest.raises(ValueError):
            MicrophoneArray(Simulator(), AcousticChannel(), {})

    def test_requires_watches_before_start(self):
        array = MicrophoneArray(Simulator(), AcousticChannel(),
                                {"m": Microphone()})
        with pytest.raises(RuntimeError):
            array.start()

    def test_watch_after_start_rejected(self):
        sim = Simulator()
        array = MicrophoneArray(sim, AcousticChannel(), {"m": Microphone()})
        array.watch([1000.0], on_detection=lambda d: None)
        array.start()
        with pytest.raises(RuntimeError):
            array.watch([2000.0], on_detection=lambda d: None)


class TestCoverage:
    def test_array_hears_both_groups(self, far_groups):
        (sim, channel, _plan, group_a, group_b,
         speaker_a, speaker_b, stations) = far_groups
        array = MicrophoneArray(sim, channel, stations)
        heard = []  # (frequency, winning station) per onset
        array.watch(
            list(group_a.frequencies) + list(group_b.frequencies),
            on_onset=lambda event: heard.append(
                (event.frequency, array.coverage[event.frequency])),
        )
        array.start()
        sim.schedule_at(0.5, lambda: speaker_a.play(
            channel, sim.now, ToneSpec(group_a.frequency_for(0), 0.2, 65.0)
        ))
        sim.schedule_at(1.0, lambda: speaker_b.play(
            channel, sim.now, ToneSpec(group_b.frequency_for(0), 0.2, 65.0)
        ))
        sim.run(2.0)
        frequencies = {frequency for frequency, _ in heard}
        assert frequencies == {group_a.frequency_for(0),
                               group_b.frequency_for(0)}
        # Each tone was won by its local station.
        by_frequency = dict(heard)
        assert by_frequency[group_a.frequency_for(0)] == "station-a"
        assert by_frequency[group_b.frequency_for(0)] == "station-b"

    def test_single_central_mic_misses_far_group(self, far_groups):
        """Control: one microphone in the middle hears neither group
        clearly — 60 dB emission over 40 m arrives below the 30 dB
        detection floor."""
        (sim, channel, _plan, group_a, _group_b,
         speaker_a, _speaker_b, _stations) = far_groups
        central = Microphone(Position(40.0, 0.0, 0.0), seed=23)
        detector = FrequencyDetector(list(group_a.frequencies))
        sim.schedule_at(0.5, lambda: speaker_a.play(
            channel, sim.now, ToneSpec(group_a.frequency_for(0), 0.2, 60.0)
        ))
        heard = []
        sim.every(0.1, lambda: heard.extend(
            detector.detect(central.record(channel, sim.now - 0.1, sim.now))
        ))
        sim.run(2.0)
        assert heard == []

    def test_duplicate_suppression(self, far_groups):
        """A tone audible at both stations yields one onset, attributed
        to the louder station, listing both hearers."""
        (sim, channel, _plan, group_a, _group_b,
         speaker_a, _speaker_b, _stations) = far_groups
        stations = {
            "near": Microphone(Position(1.0, 0.0, 0.0), seed=31),
            "far": Microphone(Position(5.0, 0.0, 0.0), seed=32),
        }
        array = MicrophoneArray(sim, channel, stations)
        heard = []  # (winning station, hearers) per onset
        array.watch(list(group_a.frequencies), on_onset=lambda event:
                    heard.append((array.coverage[event.frequency],
                                  array.heard_by[event.frequency])))
        array.start()
        sim.schedule_at(0.45, lambda: speaker_a.play(
            channel, sim.now, ToneSpec(group_a.frequency_for(0), 0.1, 75.0)
        ))
        sim.run(1.0)
        assert len(heard) == 1
        station, hearers = heard[0]
        assert station == "near"
        assert set(hearers) == {"near", "far"}

    def test_coverage_map(self, far_groups):
        (sim, channel, _plan, group_a, group_b,
         speaker_a, speaker_b, stations) = far_groups
        array = MicrophoneArray(sim, channel, stations)
        array.watch(
            list(group_a.frequencies) + list(group_b.frequencies),
            on_detection=lambda event: None,
        )
        array.start()
        sim.schedule_at(0.5, lambda: speaker_a.play(
            channel, sim.now, ToneSpec(group_a.frequency_for(1), 0.2, 65.0)
        ))
        sim.run(1.5)
        assert array.coverage[group_a.frequency_for(1)] == "station-a"


class TestAppsOverArray:
    def test_queue_monitor_hears_through_local_station(self, far_groups):
        """An unmodified controller app runs over an array: the switch
        chirps next to station-a and 78 m from station-b, and the app
        tracks its queue band from the events the array dispatches."""
        (sim, channel, _plan, _group_a, _group_b,
         speaker_a, _speaker_b, stations) = far_groups
        array = MicrophoneArray(sim, channel, stations)
        tones = BandToneMap(500.0, 600.0, 700.0)
        app = QueueMonitorApp(array, "s1", tones)
        hearers = []
        array.watch(tones.frequencies(), on_onset=lambda event:
                    hearers.append(array.heard_by[event.frequency]))
        array.start()
        for when, frequency in ((0.5, tones.low), (1.0, tones.high)):
            sim.schedule_at(when, lambda f=frequency: speaker_a.play(
                channel, sim.now, ToneSpec(f, 0.08, 65.0)))
        sim.run(1.5)
        assert [band for _, band in app.band_history] == ["low", "high"]
        assert app.is_congested
        assert array.coverage[tones.high] == "station-a"
        assert hearers == [["station-a"], ["station-a"]]
