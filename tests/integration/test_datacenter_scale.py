"""Integration: MDN over a leaf-spine datacenter with a microphone array.

Combines the §8 array direction with the routing substrate: five
switches across a fabric, each chirping heartbeats to its local
listening station; the array coordinates stations, and a switch dying
anywhere in the room is detected.
"""

import pytest

from repro.audio import AcousticChannel, Microphone, Position, Speaker
from repro.core import FrequencyPlan, MicrophoneArray
from repro.core.agent import MusicAgent
from repro.net import Simulator
from repro.net.routing import leaf_spine_topology


@pytest.fixture
def fabric():
    """A 2x3 leaf-spine fabric; leaves in one aisle, spines in another,
    a listening station per aisle, one shared plan."""
    sim = Simulator()
    topo = leaf_spine_topology(sim, num_leaves=3, num_spines=2)
    channel = AcousticChannel()
    plan = FrequencyPlan(low_hz=500.0, guard_hz=40.0)

    aisle_positions = {
        "leaf1": Position(0.0, 0.0, 0.0),
        "leaf2": Position(2.0, 0.0, 0.0),
        "leaf3": Position(4.0, 0.0, 0.0),
        "spine1": Position(50.0, 0.0, 0.0),
        "spine2": Position(52.0, 0.0, 0.0),
    }
    agents = {
        name: MusicAgent(sim, channel, Speaker(position), name)
        for name, position in aisle_positions.items()
    }
    stations = {
        "aisle-leaf": Microphone(Position(2.0, 1.0, 0.0), seed=81),
        "aisle-spine": Microphone(Position(51.0, 1.0, 0.0), seed=82),
    }
    array = MicrophoneArray(sim, channel, stations)
    return sim, topo, channel, plan, agents, array


class TestArrayLiveness:
    def test_all_switches_heard_by_their_aisle(self, fabric):
        sim, _topo, _channel, plan, agents, array = fabric
        frequencies = {}
        for name in sorted(agents):
            allocation = plan.allocate(name, 1)
            frequencies[name] = allocation.frequency_for(0)
        heard = []  # (frequency, winning station) per onset
        array.watch(list(frequencies.values()), on_onset=lambda event:
                    heard.append((event.frequency,
                                  array.coverage[event.frequency])))
        array.start()
        # Staggered chirps, one per switch.
        for index, name in enumerate(sorted(agents)):
            sim.schedule_at(
                0.5 + index * 0.3,
                lambda n=name: agents[n].play(frequencies[n], 0.12, 65.0),
            )
        sim.run(3.0)
        assert {frequency for frequency, _ in heard} == \
            set(frequencies.values())
        # Station attribution matches aisle geography.
        station_of = dict(heard)
        assert station_of[frequencies["leaf2"]] == "aisle-leaf"
        assert station_of[frequencies["spine1"]] == "aisle-spine"

    def test_fabric_carries_traffic_while_array_listens(self, fabric):
        """The acoustic plane and the data plane are independent: both
        run concurrently over one simulator."""
        sim, topo, _channel, plan, agents, array = fabric
        allocation = plan.allocate("leaf1", 1)
        array.watch([allocation.frequency_for(0)],
                    on_onset=lambda d: None)
        array.start()
        sim.schedule_at(0.5, lambda: agents["leaf1"].play(
            allocation.frequency_for(0), 0.12, 65.0))
        topo.hosts["h1_1"].send_to("10.3.0.1", 80, size_bytes=700)
        sim.run(2.0)
        assert topo.hosts["h3_1"].bytes_received.total == 700
        assert array.windows_processed > 0


class TestDeterminism:
    def test_identical_runs_produce_identical_results(self):
        """The reproducibility invariant: two runs of the same
        experiment are bit-identical (no hidden wall-clock or
        unordered iteration anywhere in the stack)."""
        from repro.experiments import queue_monitor_experiment

        first = queue_monitor_experiment()
        second = queue_monitor_experiment()
        assert first.queue_series.values == second.queue_series.values
        assert first.band_history == second.band_history

    def test_fig4_determinism(self):
        from repro.experiments import heavy_hitter_experiment

        first = heavy_hitter_experiment()
        second = heavy_hitter_experiment()
        assert first.per_interval_heavy_counts.values == \
            second.per_interval_heavy_counts.values
        assert first.alerts == second.alerts
