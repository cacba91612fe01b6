"""Equivalence suite: batched chirp schedules vs per-chirp sim events.

A fleet room hands every agent's whole chirp schedule to the channel as
one column batch (:func:`repro.core.agent.play_schedules`).  The
specification it replaces is one ``sim.schedule_at(start, agent.play,
...)`` event per chirp, kept here as :func:`per_event_room`.  Over
generated schedules -- equal start times across agents, echo taps,
muted emitters -- both must hold the same tones in the same schedule
order and render every window bit for bit alike
(``assert_array_equal``).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audio import AcousticChannel, Position, Speaker
from repro.core import MusicProtocolMessage
from repro.core.agent import MusicAgent, play_schedules
from repro.faults import FaultHarness
from repro.net.sim import Simulator

DURATION = 0.03
LEVEL = 70.0
WINDOW = 1.0 / 30.0
HORIZON = 1.2
LISTENERS = (Position(), Position(0.4, -0.3, 0.0))


@st.composite
def rooms(draw):
    """Agents with positions, frequencies, start slots on a shared grid
    (so equal starts across agents are common) and maybe a dropout each."""
    agents = []
    for index in range(draw(st.integers(1, 6))):
        slots = draw(st.lists(st.integers(0, 22), max_size=12, unique=True))
        agents.append({
            "position": Position(draw(st.floats(-1.5, 1.5)),
                                 draw(st.floats(-1.5, 1.5)), 0.0),
            "frequency": 420.0 + 120.0 * draw(st.integers(0, 8)),
            # Slots 0.05 s apart: no chirp overlaps its predecessor.
            "starts": [slot * 0.05 + draw(st.sampled_from([0.0, 0.001]))
                       for slot in sorted(slots)],
            "fault": draw(st.sampled_from([None, "drop"])),
            "fault_at": draw(st.floats(0.0, 1.0)),
        })
    taps = draw(st.sampled_from([(), ((0.013, 9.0),),
                                 ((0.007, 4.0), (0.029, 12.5))]))
    return agents, taps


def _build(agents, taps):
    """A room's sim, channel and agents, with every fault installed."""
    sim = Simulator()
    channel = AcousticChannel(echo_taps=taps)
    air = FaultHarness(sim, seed=5).acoustic(channel)
    built = []
    for index, agent in enumerate(agents):
        position = agent["position"]
        built.append(MusicAgent(sim, channel, Speaker(position),
                                name=f"s{index}"))
        at = agent["fault_at"]
        if agent["fault"] == "drop":
            air.drop_speaker(position, at, at + 0.3)
    return sim, channel, built, air


def per_event_room(agents, taps):
    """One ``sim.schedule_at(start, agent.play, ...)`` per chirp."""
    sim, channel, built, air = _build(agents, taps)
    for agent, music_agent in zip(agents, built):
        for start in agent["starts"]:
            sim.schedule_at(start, music_agent.play, agent["frequency"],
                            DURATION, LEVEL)
    sim.run(HORIZON)
    return channel, built, air


def batched_room(agents, taps):
    """Every chirp in one :func:`play_schedules` batch."""
    sim, channel, built, air = _build(agents, taps)
    play_schedules([
        (music_agent, agent["starts"],
         MusicProtocolMessage(agent["frequency"], DURATION, LEVEL))
        for agent, music_agent in zip(agents, built)
    ])
    sim.run(HORIZON)
    return channel, built, air


@settings(max_examples=60, deadline=None)
@given(room=rooms())
def test_batched_schedule_renders_like_per_chirp_events(room):
    agents, taps = room
    event_channel, event_agents, event_air = per_event_room(agents, taps)
    batch_channel, batch_agents, batch_air = batched_room(agents, taps)
    assert batch_channel.scheduled_tones == event_channel.scheduled_tones
    assert [a.played.total for a in batch_agents] == \
        [a.played.total for a in event_agents]
    windows = int(HORIZON / WINDOW)
    for listener in LISTENERS:
        for k in range(windows):
            start, end = k * WINDOW, (k + 1) * WINDOW
            np.testing.assert_array_equal(
                batch_channel.render_at(listener, start, end).samples,
                event_channel.render_at(listener, start, end).samples,
            )
    # The fault model saw the same rendered tones.
    assert [c.value for c in batch_air.counters] == \
        [c.value for c in event_air.counters]


def test_equal_starts_sum_in_agent_order():
    """Two agents chirping at the same instants: the batch sequences
    each instant's rows in agent order, as the per-chirp events fire."""
    agents = [
        {"position": Position(0.5, 0.0, 0.0), "frequency": 660.0,
         "starts": [0.1, 0.2, 0.3], "fault": None, "fault_at": 0.0},
        {"position": Position(-0.7, 0.2, 0.0), "frequency": 540.0,
         "starts": [0.0, 0.1, 0.3], "fault": None, "fault_at": 0.0},
    ]
    event_channel, _agents, _air = per_event_room(agents, ())
    batch_channel, _agents, _air = batched_room(agents, ())
    frequencies = [t.spec.frequency for t in batch_channel.scheduled_tones]
    assert frequencies == [540.0, 660.0, 540.0, 660.0, 660.0, 540.0]
    assert batch_channel.scheduled_tones == event_channel.scheduled_tones
