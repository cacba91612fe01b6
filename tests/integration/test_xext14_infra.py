"""XEXT14 acceptance: the repro.infra hardening under real workloads.

These pin the PR's headline claims on the smoke-sized run CI executes:
the circuit breaker cuts time-to-failover on a wedged link by >= 2x
over deadline-only detection (and fails back after the Pi restarts);
token-bucket admission keeps the ARQ ``in_flight`` table bounded under
a send storm with every shed counted; and a six-tone detection storm
reaches the controller's subscribers whole (every detection dispatched
exactly once).
"""

import pytest

from repro.audio import AcousticChannel, Microphone, Position, Speaker
from repro.core import MDNController, MusicAgent
from repro.experiments.xext14 import XEXT14_SEED, infra_experiment
from repro.net import Simulator


@pytest.fixture(scope="module")
def result():
    return infra_experiment(smoke=True)


@pytest.fixture(scope="module")
def tone_storm():
    """Six continuous tones under one controller for 1.6 s: every
    window of the run detects all six."""
    sim = Simulator()
    channel = AcousticChannel()
    controller = MDNController(
        sim, channel, Microphone(Position(), seed=XEXT14_SEED))
    frequencies = [600.0 + 100.0 * i for i in range(6)]
    dispatched: list[tuple[float, float]] = []
    controller.watch(
        frequencies,
        on_detection=lambda e: dispatched.append((e.time, e.frequency)))
    for index, frequency in enumerate(frequencies):
        agent = MusicAgent(sim, channel,
                           Speaker(Position(0.5 + 0.1 * index, 0.0, 0.0)),
                           name=f"storm{index}")
        agent.play(frequency, 1.6, 72.0)
    controller.start()
    sim.run(1.6)
    return controller, dispatched


class TestWedgedLinkAcceptance:
    def test_both_policies_detect_the_wedge(self, result):
        wedged = result.wedged
        assert wedged.baseline_detected_at is not None
        assert wedged.breaker_failover_at is not None
        assert wedged.breaker_failover_at > wedged.wedge_at

    def test_breaker_at_least_twice_as_fast(self, result):
        assert result.wedged.speedup is not None
        assert result.wedged.speedup >= 2.0

    def test_open_breaker_fast_fails_instead_of_queueing(self, result):
        wedged = result.wedged
        assert wedged.fast_failed > 0
        # Fast-failed sends never ride the 2 s deadline, so the breaker
        # run expires far fewer frames than the deadline-only run.
        assert wedged.breaker_expired < wedged.baseline_expired

    def test_failback_after_restart(self, result):
        wedged = result.wedged
        assert wedged.failback_at is not None
        assert wedged.failback_at >= wedged.recover_at


class TestStormAcceptance:
    def test_unlimited_sender_queues_every_send(self, result):
        storm = result.storm
        assert storm.bare_peak_in_flight == storm.storm_sends

    def test_bucket_bounds_in_flight(self, result):
        storm = result.storm
        assert storm.limited_peak_in_flight <= storm.admitted_bound
        assert storm.limited_peak_in_flight < storm.bare_peak_in_flight

    def test_every_shed_is_counted(self, result):
        storm = result.storm
        assert storm.arq_shed > 0
        assert storm.arq_admitted + storm.arq_shed == storm.storm_sends

    def test_controller_ingest_conserves_events(self, tone_storm):
        """The six-tone storm dispatches every detection exactly once."""
        controller, dispatched = tone_storm
        assert controller.detections > 6 * (controller.windows_processed - 2)
        assert controller.detections == len(dispatched)
        assert len(set(dispatched)) == len(dispatched)
