"""Unit tests for the MP wire ARQ."""

import pytest

from repro.audio import AcousticChannel, Position, Speaker
from repro.core import (
    ArqConfig,
    MpArqSender,
    MusicAgent,
    MusicProtocolMessage,
    PiBridge,
)
from repro.faults import FaultHarness
from repro.net.sim import Simulator
from repro.net.switch import Switch

MESSAGE = MusicProtocolMessage(1000.0, 0.05, 70.0)


class TestArqConfig:
    def test_defaults_valid(self):
        ArqConfig()

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ArqConfig(initial_timeout=0.0)
        with pytest.raises(ValueError):
            ArqConfig(backoff=0.5)
        with pytest.raises(ValueError):
            ArqConfig(max_timeout=0.01, initial_timeout=0.05)
        with pytest.raises(ValueError):
            ArqConfig(deadline=-1.0)


def _mp_rig(loss_rate=0.0, seed=3):
    sim = Simulator()
    channel = AcousticChannel()
    agent = MusicAgent(sim, channel, Speaker(Position(1.0, 0.0, 0.0)),
                       name="s1")
    switch = Switch(sim, "s1")
    bridge = PiBridge(sim, switch, agent)
    if loss_rate:
        FaultHarness(sim, seed=seed).mp_link(
            switch.ports[bridge.pi_port], loss_rate=loss_rate, label="arq"
        )
    return sim, bridge


class TestMpArqSender:
    def test_clean_link_acks_first_try(self):
        sim, bridge = _mp_rig()
        sender = MpArqSender(bridge)
        sender.send(MESSAGE)
        sim.run(1.0)
        stats = sender.stats()
        assert stats.acked == 1
        assert stats.retransmits == 0
        assert sender.in_flight == 0
        assert bridge.pi.mp_seen_seqs == {0}
        assert bridge.pi.acks_sent.total == 1

    def test_retransmits_through_loss(self):
        sim, bridge = _mp_rig(loss_rate=0.3)
        sender = MpArqSender(bridge)
        for index in range(20):
            sim.schedule_at(index * 0.3, sender.send, MESSAGE)
        sim.run(10.0)
        stats = sender.stats()
        assert stats.acked == 20
        assert stats.retransmits > 0
        assert stats.expired == 0

    def test_deadline_expires_on_dead_link(self):
        sim, bridge = _mp_rig(loss_rate=1.0)
        config = ArqConfig(deadline=0.5)
        sender = MpArqSender(bridge, config)
        sender.send(MESSAGE)
        sim.run(2.0)
        stats = sender.stats()
        assert stats.expired == 1
        assert stats.acked == 0
        assert sender.in_flight == 0

    def test_sequence_numbers_increment(self):
        sim, bridge = _mp_rig()
        sender = MpArqSender(bridge)
        assert [sender.send(MESSAGE) for _ in range(3)] == [0, 1, 2]

    def test_legacy_bare_path_not_acked(self):
        """Fire-and-forget frames must not trigger ACK machinery."""
        sim, bridge = _mp_rig()
        bridge.send_mp(MESSAGE)
        sim.run(1.0)
        assert bridge.pi.mp_played.total == 1
        assert bridge.pi.acks_sent.total == 0
        assert bridge.pi.mp_seen_seqs == set()

    def test_duplicate_delivery_counted_once(self):
        """Retransmitted frames that both arrive play twice but count
        as one distinct delivery."""
        sim, bridge = _mp_rig()
        sender = MpArqSender(bridge, ArqConfig(initial_timeout=0.0001))
        sender.send(MESSAGE)
        sim.run(1.0)
        assert len(bridge.pi.mp_seen_seqs) == 1


class TestPerInstanceStats:
    def test_two_senders_keep_independent_tallies(self):
        """Regression: stats() once read the globally-named obs
        counters, so a second sender's traffic leaked into the first
        sender's report."""
        sim, bridge_a = _mp_rig()
        switch_b = Switch(sim, "s2")
        agent_b = MusicAgent(sim, AcousticChannel(),
                             Speaker(Position(0.0, 1.0, 0.0)), name="s2")
        bridge_b = PiBridge(sim, switch_b, agent_b)
        sender_a = MpArqSender(bridge_a)
        sender_b = MpArqSender(bridge_b)
        for _ in range(3):
            sender_a.send(MESSAGE)
        sender_b.send(MESSAGE)
        sim.run(1.0)
        stats_a, stats_b = sender_a.stats(), sender_b.stats()
        assert (stats_a.sent, stats_a.acked) == (3, 3)
        assert (stats_b.sent, stats_b.acked) == (1, 1)

    def test_expirations_stay_per_instance(self):
        sim, bridge_dead = _mp_rig(loss_rate=1.0)
        switch_b = Switch(sim, "s2")
        agent_b = MusicAgent(sim, AcousticChannel(),
                             Speaker(Position(0.0, 1.0, 0.0)), name="s2")
        bridge_ok = PiBridge(sim, switch_b, agent_b)
        dead = MpArqSender(bridge_dead)
        ok = MpArqSender(bridge_ok)
        dead.send(MESSAGE)
        ok.send(MESSAGE)
        sim.run(3.0)
        assert dead.stats().expired == 1 and dead.stats().acked == 0
        assert ok.stats().expired == 0 and ok.stats().acked == 1


class TestSequenceWraparound:
    def test_sequence_wraps_past_65535(self):
        sim, bridge = _mp_rig()
        sender = MpArqSender(bridge)
        sender._next_sequence = 65_535
        assert sender.send(MESSAGE) == 65_535
        assert sender.send(MESSAGE) == 0
        sim.run(1.0)
        assert sender.stats().acked == 2

    def test_wrap_onto_pending_frame_expires_the_stale_one(self):
        """Regression: a wrapped sequence number landing on a frame
        still in flight used to let the stale frame's timers retransmit
        and expire the *new* frame's state."""
        sim, bridge = _mp_rig(loss_rate=1.0)
        sender = MpArqSender(bridge)
        sender._next_sequence = 65_535
        assert sender.send(MESSAGE) == 65_535
        # Force an immediate wrap back onto the in-flight sequence.
        sender._next_sequence = 65_535
        assert sender.send(MESSAGE) == 65_535
        # The stale frame was expired on the spot, unambiguously.
        assert sender.stats().expired == 1
        assert sender.in_flight == 1
        sim.run(1.999)
        # The stale frame's leftover timers died on the identity guard:
        # the replacement is still pending, on its own schedule.
        assert sender.stats().expired == 1
        assert sender._pending[65_535].attempts == 7
        sim.run(4.0)
        # The replacement ran its own full deadline, counted once.
        stats = sender.stats()
        assert stats.sent == 2
        assert stats.expired == 2
        assert stats.retransmits == 6
        assert sender.in_flight == 0


class TestRetrySchedulePinned:
    def test_wire_retransmit_offsets_unchanged(self):
        """The RetryPolicy refactor must not move the MP wire schedule:
        retries at +0.05/0.15/0.35/0.75/1.25/1.75, expiry at +2.0."""
        sim, bridge = _mp_rig(loss_rate=1.0)
        sender = MpArqSender(bridge)
        sim.schedule_at(1.0, sender.send, MESSAGE)
        sim.run(2.9999)
        assert sender.in_flight == 1
        sim.run(3.0)
        assert sender.in_flight == 0
        sim.run(5.0)
        stats = sender.stats()
        assert stats.retransmits == 6
        assert stats.expired == 1

    def test_jitter_shrinks_but_keeps_deadline(self):
        sim, bridge = _mp_rig(loss_rate=1.0)
        sender = MpArqSender(bridge, ArqConfig(jitter=0.5))
        sender.send(MESSAGE)
        sim.run(1.9999)
        assert sender.in_flight == 1
        sim.run(2.0)
        assert sender.in_flight == 0
        sim.run(5.0)
        assert sender.stats().expired == 1
        assert sender.stats().retransmits >= 6


class TestBoundedState:
    def test_ten_thousand_acks_leave_no_per_frame_state(self):
        """A long-lived sender keeps running tallies, not per-frame
        logs: after 10,000 acknowledged frames the only container it
        holds is the (empty) in-flight table."""
        sim, bridge = _mp_rig()
        sender = MpArqSender(bridge)
        for index in range(10_000):
            sim.schedule_at(index * 0.001, sender.send, MESSAGE)
        sim.run(11.0)
        stats = sender.stats()
        assert stats.acked == 10_000
        assert stats.mean_latency > 0.0
        containers = {
            name: value for name, value in vars(sender).items()
            if isinstance(value, (list, tuple, dict, set, bytes))
        }
        assert containers == {"_pending": {}}
