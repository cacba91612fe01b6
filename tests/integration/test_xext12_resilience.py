"""XEXT12 acceptance: ARQ delivery, failover latency, reproducibility.

These pin the PR's headline claims: ARQ holds ≥ 99 % MP delivery at
20 % frame loss where fire-and-forget drops below 80 %; the failover
layer hands a dead speaker to the in-band baseline within two chirp
intervals of the first silenced beat and returns after recovery; and
every number is reproducible from the seed.
"""

import pytest

from repro.core import ChannelHealth
from repro.experiments.xext12 import (
    arq_loss_sweep,
    failover_experiment,
    resilience_sweep,
)


class TestArqAcceptance:
    @pytest.fixture(scope="class")
    def at_20pct(self):
        [point] = arq_loss_sweep(loss_rates=(0.2,), frames=60)
        return point

    def test_no_arq_drops_below_80pct(self, at_20pct):
        assert at_20pct.no_arq_delivery < 0.80

    def test_arq_holds_99pct(self, at_20pct):
        assert at_20pct.arq_delivery >= 0.99
        assert at_20pct.arq_acked >= 0.99
        assert at_20pct.expired == 0
        assert at_20pct.retransmits > 0

    def test_lossless_link_is_transparent(self):
        [point] = arq_loss_sweep(loss_rates=(0.0,), frames=30)
        assert point.no_arq_delivery == 1.0
        assert point.arq_delivery == 1.0
        assert point.retransmits == 0
        assert point.frames_lost_arq == 0

    def test_seed_reproducible(self):
        first = arq_loss_sweep(loss_rates=(0.2,), frames=60)
        second = arq_loss_sweep(loss_rates=(0.2,), frames=60)
        assert first == second


class TestFailoverAcceptance:
    @pytest.fixture(scope="class")
    def episode(self):
        return failover_experiment()

    def test_speaker_declared_dead(self, episode):
        assert episode.dead_declared_at is not None
        assert episode.fault_start <= episode.dead_declared_at

    def test_failover_within_two_chirp_intervals(self, episode):
        assert episode.failover_at is not None
        assert episode.failover_latency <= 2 * episode.period

    def test_inband_covers_the_outage(self, episode):
        assert episode.inband_delivered > 0
        assert episode.inband_delivery_rate > 0.9

    def test_failback_after_recovery(self, episode):
        assert episode.failback_at is not None
        assert episode.failback_at > episode.fault_end
        assert episode.final_state is ChannelHealth.HEALTHY

    def test_event_sequence(self, episode):
        actions = [event.action for event in episode.events]
        assert actions == ["to_inband", "to_acoustic"]
        assert episode.fault_summary["speaker_dropouts"] == 1
        assert 1 <= episode.fault_summary["tones_muted"] <= episode.beats_emitted

    def test_seed_reproducible(self, episode):
        again = failover_experiment()
        assert again.failover_at == episode.failover_at
        assert again.failback_at == episode.failback_at
        assert again.inband_delivered == episode.inband_delivered
        assert again.beats_emitted == episode.beats_emitted


class TestResilienceSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return resilience_sweep(fault_rates=(0.0, 0.3), duration=12.0)

    def test_zero_fault_rate_is_clean(self, sweep):
        clean = sweep[0]
        assert clean.detection_accuracy == 1.0
        assert clean.failovers == 0
        assert clean.dropout_windows == 0

    def test_faults_degrade_acoustic_accuracy(self, sweep):
        faulty = sweep[1]
        assert faulty.detection_accuracy < 1.0
        assert faulty.dropout_windows > 0

    def test_every_beat_is_heard_or_muted(self, sweep):
        """A muted beat counts once, so the heard and muted beats add
        up to the emitted ones at every fault rate."""
        for point in sweep:
            assert (point.beats_heard + point.fault_summary["tones_muted"]
                    == point.beats_emitted)

    def test_failover_recovers_coverage(self, sweep):
        faulty = sweep[1]
        assert faulty.failovers >= 1
        assert faulty.covered_fraction > faulty.detection_accuracy
        assert faulty.covered_fraction >= 0.9
