"""Look-ahead block listening must hear exactly what one-window
listening hears.

A controller whose listen event fires with nothing else due before its
next windows hears those windows in one block (one render, one batched
detect).  Each window is still dispatched at its own sim event, and a
window whose air changed before its turn is heard again.  Random rooms
(echo taps, speaker dropouts, a run split across several
``Simulator.run`` calls with tones scheduled between them, a subscriber
that plays a tone on onset) run twice: once as they are, once with a
no-op timer on the listen grid, which puts another event one window
ahead of every listen event so that each window is heard alone.  Both
runs must give equal onsets, detections, controller and detector
counters and mute counts.  An outage takes its tones off the schedule
and counts each once, so the dropout rooms too are heard in blocks in
the first run and window by window in the second.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.audio import (
    AcousticChannel,
    FrequencyDetector,
    Microphone,
    Position,
    ToneSpec,
)
from repro.core import MDNController
from repro.faults import AcousticFaults
from repro.net.sim import Simulator

FREQUENCIES = [600.0 + 120.0 * index for index in range(8)]

#: The tone the onset subscriber answers with.
REPLY = 3000.0


@st.composite
def rooms(draw):
    """The numbers of one room: emitters, tones, faults and the run."""
    emitters = draw(st.integers(1, 4))
    return {
        "seed": draw(st.integers(0, 2**16)),
        "emitters": emitters,
        "tones": draw(st.integers(0, 40)),
        "echo_taps": draw(st.sampled_from(
            [(), ((0.013, 4.0),), ((0.007, 2.0), (0.031, 9.0))])),
        "dropouts": draw(st.lists(
            st.tuples(st.integers(0, emitters - 1),
                      st.floats(0.0, 2.0), st.floats(0.05, 0.8)),
            max_size=2)),
        "interval": draw(st.sampled_from([0.05, 1.0 / 30.0, 0.1])),
        "prune_every": draw(st.sampled_from([0, 7, 25])),
        "reply": draw(st.booleans()),
        "splits": draw(st.lists(st.floats(0.1, 2.4), max_size=3)),
    }


def run_room(room, alone):
    """Run ``room``; with ``alone``, a no-op timer on the listen grid
    keeps an event one window ahead of every listen event.  Returns
    everything the two runs must agree on."""
    registry, _tracer = obs.enable(obs.MetricsRegistry())
    try:
        rng = np.random.default_rng(room["seed"])
        sim = Simulator()
        channel = AcousticChannel(echo_taps=room["echo_taps"])
        positions = [Position(float(rng.uniform(0.3, 4.0)),
                              float(rng.uniform(-2.0, 2.0)), 0.0)
                     for _ in range(room["emitters"])]

        def play(count, low, high):
            for _ in range(count):
                channel.play_tone(
                    float(rng.uniform(low, high)),
                    ToneSpec(float(rng.choice(FREQUENCIES)),
                             float(rng.uniform(0.03, 0.3)),
                             float(rng.uniform(55.0, 75.0))),
                    positions[int(rng.integers(len(positions)))],
                )

        play(room["tones"], 0.0, 2.5)
        faults = AcousticFaults(sim, channel, seed=room["seed"])
        for emitter, start, length in room["dropouts"]:
            faults.drop_speaker(positions[emitter], start, start + length)
        timing = {"listen_interval": room["interval"],
                  "prune_every": room["prune_every"], "prune_margin": 0.0}
        controller = MDNController(
            sim, channel, Microphone(Position(), seed=room["seed"]), **timing)
        onsets, detections = [], []

        def on_onset(event):
            onsets.append((event.frequency, event.time))
            if room["reply"] and event.frequency != REPLY:
                channel.play_tone(sim.now, ToneSpec(REPLY, 0.05, 70.0),
                                  positions[0])

        controller.watch(FREQUENCIES + [REPLY], on_onset=on_onset,
                         on_detection=lambda event: detections.append(
                             (event.frequency, event.measured_frequency,
                              event.level_db, event.time)))
        if alone:
            sim.every(room["interval"], lambda: None)
        controller.start()
        for until in sorted(room["splits"]):
            sim.run(until)
            play(3, sim.now, sim.now + 0.4)
        sim.run(3.0)
        counters = {name: registry.get(name).value for name in (
            "detector.windows", "detector.events",
            "controller.windows_processed", "controller.detections",
            "controller.onsets", "controller.tones_pruned")}
        return {
            "onsets": onsets,
            "detections": detections,
            "counters": counters,
            "muted": faults.counters[1].value,
            "windows": controller.windows_processed,
        }
    finally:
        obs.disable()


@settings(max_examples=25, deadline=None)
@given(rooms())
def test_block_listening_hears_what_one_window_listening_hears(room):
    ahead = run_room(room, alone=False)
    alone = run_room(room, alone=True)
    assert ahead == alone
    assert ahead["windows"] >= round(3.0 / room["interval"]) - 1


def quiet_room(monkeypatch, dropout=None):
    """Eight speakers chirping every 0.3 s for 3 s, heard by a
    controller alone on the heap; ``dropout`` is an ``(emitter, start,
    end)`` outage.  Returns the sim, the controller, the onsets, the
    window count of each ``_hear`` call and the injector."""
    heard = []
    hear = MDNController._hear

    def counting(self, starts, ends):
        hearings = hear(self, starts, ends)
        heard.append(len(hearings))
        return hearings

    monkeypatch.setattr(MDNController, "_hear", counting)
    sim, channel = Simulator(), AcousticChannel()
    positions = [Position(1.0, 0.1 * index, 0.0)
                 for index in range(len(FREQUENCIES))]
    for index, frequency in enumerate(FREQUENCIES):
        for start in np.arange(0.01 * index, 3.0, 0.3):
            channel.play_tone(float(start), ToneSpec(frequency, 0.05, 70.0),
                              positions[index])
    faults = AcousticFaults(sim, channel)
    if dropout is not None:
        emitter, start, end = dropout
        faults.drop_speaker(positions[emitter], start, end)
    controller = MDNController(sim, channel, Microphone(),
                               listen_interval=1.0 / 30.0)
    onsets = []
    controller.watch(FREQUENCIES, on_onset=onsets.append)
    controller.start()
    sim.run(3.0)
    return sim, controller, onsets, heard, faults


def test_a_quiet_room_hears_its_windows_in_blocks(monkeypatch):
    """With only the listen timer on the heap, most windows are heard
    ahead, yet each window is still one sim event."""
    sim, controller, onsets, heard, _faults = quiet_room(monkeypatch)
    assert sim.events_processed == controller.windows_processed == 90
    assert sum(heard) == 90
    assert len(heard) < 30
    assert len(onsets) == 80


def test_a_faulted_quiet_room_hears_its_windows_in_blocks(monkeypatch):
    """A speaker outage takes its tones off the schedule, so a faulted
    room is heard in blocks too: the outage's activation is the only
    other event, and the three chirps it covers count once each."""
    sim, controller, onsets, heard, faults = quiet_room(
        monkeypatch, dropout=(0, 1.0, 2.0))
    assert controller.windows_processed == 90
    assert sim.events_processed == 91
    assert sum(heard) == 90
    assert len(heard) < 30
    assert len(onsets) == 77
    assert [counter.value for counter in faults.counters] == [1, 3]


@settings(max_examples=20, deadline=None)
@given(rooms())
def test_block_rows_equal_one_window_calls(room):
    """Bit for bit: each row of a block render, a block capture and a
    batched detect equals the one-window call on that window (the 2-D
    rfft rows and the block bincount included)."""
    rng = np.random.default_rng(room["seed"])
    sim, channel = Simulator(), AcousticChannel(echo_taps=room["echo_taps"])
    positions = [Position(float(rng.uniform(0.3, 4.0)), 0.5 * index, 0.0)
                 for index in range(room["emitters"])]
    for _ in range(room["tones"]):
        channel.play_tone(float(rng.uniform(0.0, 2.5)),
                          ToneSpec(float(rng.choice(FREQUENCIES)),
                                   float(rng.uniform(0.03, 0.3)), 65.0),
                          positions[int(rng.integers(len(positions)))])
    faults = AcousticFaults(sim, channel)
    for emitter, start, length in room["dropouts"]:
        faults.drop_speaker(positions[emitter], start, start + length)
    microphone = Microphone(Position(0.2, -0.1, 0.0), seed=room["seed"])
    detector = FrequencyDetector(FREQUENCIES)
    interval = room["interval"]
    ends = [interval * (tick + 1) for tick in range(round(2.8 / interval))]
    starts = [end - interval for end in ends]
    done = 0
    while done < len(starts):
        clean = channel.render_block(microphone.position, starts[done:],
                                     ends[done:])
        captures = microphone.record_block(channel, starts[done:], ends[done:])
        heard = detector.detect_frames(captures, microphone.sample_rate,
                                       starts[done:])
        assert len(captures) == len(clean) == len(heard) >= 1
        for row, capture, events, start, end in zip(
                clean, captures, heard, starts[done:], ends[done:]):
            alone = channel.render_at(microphone.position, start, end)
            assert alone.samples.tobytes() == row.tobytes()
            window = microphone.record(channel, start, end)
            assert window.samples.tobytes() == capture.tobytes()
            assert detector.detect(window, start) == events
        done += len(clean)
