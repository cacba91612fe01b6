"""Stateful property test for the MP wire ARQ sender.

Hypothesis drives one :class:`MpArqSender` through random runs of
sends, ACKs the Pi sends back for any sequence ever used (duplicates
and stale ones included), a switch-to-Pi link that loses every frame
while it is down, sends forced onto an in-flight sequence, and sim-time
advances.  The sequence counter starts just below 65,535, so every run
crosses the 16-bit wraparound.  After every step:

* ``sent == acked + expired + in_flight``;
* no frame (one send, so one incarnation of a sequence number) is both
  acked and expired, and none is settled twice;
* a stale timer never touches a frame that displaced it: every pending
  frame has exactly the transmissions its own retry schedule has
  reached, is still before its own deadline, and a displaced frame is
  never transmitted again.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.audio import AcousticChannel, Position, Speaker
from repro.core import MpArqSender, MusicAgent, MusicProtocolMessage, PiBridge
from repro.faults import FaultHarness
from repro.net.sim import Simulator
from repro.net.switch import Switch

MESSAGE = MusicProtocolMessage(1000.0, 0.05, 70.0)


class RecordingSender(MpArqSender):
    """An :class:`MpArqSender` that notes which frame each ACK and each
    expiry settles.  Frames are tracked as objects, so a sequence
    number reused after wraparound counts as a new frame."""

    def __init__(self, bridge: PiBridge) -> None:
        super().__init__(bridge)
        self.acked: list = []
        self.expired: list = []
        #: ``(frame, attempts when displaced)`` per wraparound victim.
        self.displaced: list = []

    def send(self, message: MusicProtocolMessage) -> int:
        stale = self._pending.get(self._next_sequence)
        sequence = super().send(message)
        if stale is not None:
            self.expired.append(stale)
            self.displaced.append((stale, stale.attempts))
        return sequence

    def _expire(self, sequence, frame) -> None:
        if self._pending.get(sequence) is frame:
            assert self.sim.now >= frame.deadline
            self.expired.append(frame)
        super()._expire(sequence, frame)

    def _on_switch_packet(self, packet, in_port: int) -> None:
        before = dict(self._pending)
        super()._on_switch_packet(packet, in_port)
        self.acked += [frame for sequence, frame in before.items()
                       if self._pending.get(sequence) is not frame]


def expected_attempts(sender: MpArqSender, frame, now: float) -> int:
    """Transmissions a frame has made by ``now`` on its own schedule:
    the first, plus every retry due at or before ``now``."""
    schedule = sender.config.schedule(frame.first_sent)
    attempts, retry_at = 1, schedule.next_retry(frame.first_sent)
    while retry_at is not None and retry_at <= now:
        attempts += 1
        retry_at = schedule.next_retry(retry_at)
    return attempts


class ArqMachine(RuleBasedStateMachine):
    @initialize(first=st.integers(min_value=65_530, max_value=65_535),
                lost=st.booleans())
    def build(self, first, lost):
        self.sim = Simulator()
        agent = MusicAgent(self.sim, AcousticChannel(),
                           Speaker(Position(1.0, 0.0, 0.0)), name="s1")
        switch = Switch(self.sim, "s1")
        self.bridge = PiBridge(self.sim, switch, agent)
        self.link = FaultHarness(self.sim, seed=0).mp_link(
            switch.ports[self.bridge.pi_port], label="arq"
        )
        self.lose_frames(lost)
        self.sender = RecordingSender(self.bridge)
        self.sender._next_sequence = first
        self.used: list[int] = []

    @rule()
    def send(self):
        self.used.append(self.sender.send(MESSAGE))

    @precondition(lambda self: self.used)
    @rule(data=st.data())
    def deliver_ack(self, data):
        """The Pi acknowledges some sequence ever sent: the pending
        frame's, a settled one's (a duplicate), or a reused one's."""
        self.bridge.pi._send_ack(data.draw(st.sampled_from(self.used)))

    @rule(lost=st.booleans())
    def lose_frames(self, lost):
        """Take the switch-to-Pi link down (every frame is lost) or up."""
        self.link.loss_rate = 1.0 if lost else 0.0

    @precondition(lambda self: self.sender.in_flight)
    @rule(data=st.data())
    def displace_pending(self, data):
        """Send onto an in-flight sequence, as the send 65,536 sends
        after it would: the new frame displaces the pending one."""
        oldest_first = sorted(self.sender._pending.items(),
                              key=lambda item: item[1].first_sent)
        self.sender._next_sequence = data.draw(
            st.sampled_from([sequence for sequence, _frame in oldest_first])
        )
        self.send()

    @rule(step=st.sampled_from([0.0001, 0.01, 0.05, 0.2, 0.9, 1.8, 2.5]))
    def advance(self, step):
        self.sim.run(self.sim.now + step)

    @invariant()
    def frames_are_conserved(self):
        stats = self.sender.stats()
        assert stats.sent == stats.acked + stats.expired + self.sender.in_flight
        assert stats.acked == len(self.sender.acked)
        assert stats.expired == len(self.sender.expired)

    @invariant()
    def each_frame_settles_once(self):
        acked = {id(frame) for frame in self.sender.acked}
        expired = {id(frame) for frame in self.sender.expired}
        assert len(acked) == len(self.sender.acked)
        assert len(expired) == len(self.sender.expired)
        assert not acked & expired

    @invariant()
    def stale_timers_touch_nothing(self):
        now = self.sim.now
        for frame in self.sender._pending.values():
            assert now < frame.deadline
            assert frame.attempts == expected_attempts(self.sender, frame, now)
        for frame, attempts in self.sender.displaced:
            assert frame.attempts == attempts


ArqMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)
TestArqStateMachine = ArqMachine.TestCase
