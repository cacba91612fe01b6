"""ARQ for the Music Protocol: repetition + acknowledgement + deadline.

ChirpCast-style acoustic links (arXiv:1508.07099) only become reliable
with acknowledgement and redundancy; the same holds for MDN's two lossy
hops.  This module adds a stop-and-wait-per-frame ARQ mode to the
**wire** hop (switch → Pi): :class:`MpArqSender` frames each MP message
with a 16-bit sequence number (``b"MD" + seq + wire``); the Pi
acknowledges a cleanly-unmarshalled frame with ``b"MA" + seq`` on
:data:`~repro.core.pi.MP_ACK_PORT`.  Unacknowledged frames are
retransmitted with exponential backoff until a per-frame delivery
deadline expires.  The legacy bare 12-byte path is untouched — ARQ is
opt-in per sender.  The **air** hop's reliability comes from repetition
instead: periodic chirps plus the channel-health failover layer.

The policy lives in :class:`ArqConfig`; all timing is simulation time,
so every retransmission schedule is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs
from ..infra import RetryPolicy, RetrySchedule
from ..net.packet import Packet
from .pi import ARQ_ACK_MAGIC, ARQ_ACK_SIZE, ARQ_DATA_MAGIC, MP_ACK_PORT, PiBridge
from .protocol import MusicProtocolMessage


@dataclass(frozen=True)
class ArqConfig:
    """Retransmission policy of the wire ARQ mode.

    The first retransmission waits ``initial_timeout``; each subsequent
    wait doubles (``backoff``) up to ``max_timeout``.  A frame still
    unacknowledged at ``deadline`` after first transmission is dropped
    and counted as expired — management traffic goes stale, it must
    not queue forever.

    Validation and the retransmission timeline both delegate to
    :class:`repro.infra.RetryPolicy`; ARQ is one consumer of the
    repo-wide retry policy, not a private copy of it.
    """

    initial_timeout: float = 0.05
    backoff: float = 2.0
    max_timeout: float = 0.5
    deadline: float = 2.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        self.policy()  # RetryPolicy owns the validation rules

    def policy(self) -> RetryPolicy:
        """This config as a :class:`repro.infra.RetryPolicy`."""
        return RetryPolicy(self.initial_timeout, self.backoff,
                           self.max_timeout, self.deadline, self.jitter)

    def schedule(self, start: float,
                 seed: int | None = None) -> RetrySchedule:
        """A fresh retry schedule anchored at ``start``."""
        return self.policy().schedule(start, seed)


@dataclass
class _PendingFrame:
    """Book-keeping for one in-flight ARQ frame.

    Retry timers carry the frame object itself and identity-check it
    against ``_pending`` before acting, so a sequence number reused
    after 16-bit wraparound can never be retransmitted or expired by a
    stale timer belonging to the displaced frame.
    """

    wire: bytes
    first_sent: float
    schedule: RetrySchedule
    attempts: int = 0

    @property
    def deadline(self) -> float:
        return self.schedule.deadline


@dataclass
class ArqStats:
    """Delivery summary for one sender."""

    sent: int
    acked: int
    retransmits: int
    expired: int
    delivery_rate: float
    mean_latency: float


class MpArqSender:
    """Reliable MP delivery over a :class:`~repro.core.pi.PiBridge`.

    Intercepts ACK frames with a switch receive hook (the Pi port is
    outside the flow table, so the hook is the only consumer); pending
    frames retransmit on a per-frame timer with exponential backoff
    until acknowledged or past the deadline.  The only per-frame state
    is ``_pending``; delivery is summarised in running tallies, so a
    sender's memory stays bounded however long it runs.
    """

    def __init__(self, bridge: PiBridge,
                 config: ArqConfig | None = None) -> None:
        self.sim = bridge.sim
        self.bridge = bridge
        self.config = config or ArqConfig()
        self._pending: dict[int, _PendingFrame] = {}
        self._next_sequence = 0
        # Per-instance delivery tallies: stats() must stay correct with
        # several senders alive (e.g. one per Pi bridge), so it never
        # reads the shared obs namespace.
        self._sent = 0
        self._acked = 0
        self._retransmits = 0
        self._expired = 0
        self._latency_total = 0.0
        self._m_sent = obs.counter("arq.mp_frames_sent")
        self._m_retransmits = obs.counter("arq.mp_retransmits")
        self._m_acked = obs.counter("arq.mp_frames_acked")
        self._m_expired = obs.counter("arq.mp_frames_expired")
        bridge.switch.on_receive(self._on_switch_packet)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(self, message: MusicProtocolMessage) -> int:
        """Frame, transmit, and track one MP message under the ARQ
        envelope (``b"MD" + seq + wire``); returns its sequence
        number."""
        now = self.sim.now
        sequence = self._next_sequence
        self._next_sequence = (self._next_sequence + 1) % 65_536
        if self._pending.pop(sequence, None) is not None:
            # 16-bit wraparound landed on a frame still in flight: it
            # can no longer be acknowledged unambiguously, so expire it
            # now; its timers die on the identity guard.
            self._count_expired()
        wire = ARQ_DATA_MAGIC + sequence.to_bytes(2, "big") + message.marshal()
        frame = _PendingFrame(
            wire=wire,
            first_sent=now,
            schedule=self.config.schedule(now, seed=sequence),
        )
        self._pending[sequence] = frame
        self._sent += 1
        self._m_sent.inc()
        self._transmit(sequence, frame)
        return sequence

    def _transmit(self, sequence: int, frame: _PendingFrame) -> None:
        if self._pending.get(sequence) is not frame:
            return  # acknowledged, expired, or displaced by wraparound
        frame.attempts += 1
        if frame.attempts > 1:
            self._retransmits += 1
            self._m_retransmits.inc()
        packet = Packet(
            self.bridge._flow,
            size_bytes=len(frame.wire) + 42,
            created_at=self.sim.now,
            is_management=True,
            payload=frame.wire,
        )
        self.bridge.mp_sent.increment()
        self.bridge.switch.transmit(packet, self.bridge.pi_port)
        retry_at = frame.schedule.next_retry(self.sim.now)
        if retry_at is not None:
            self.sim.schedule_at(retry_at, self._transmit, sequence, frame)
        else:
            self.sim.schedule_at(frame.deadline, self._expire,
                                 sequence, frame)

    def _expire(self, sequence: int, frame: _PendingFrame) -> None:
        if self._pending.get(sequence) is not frame:
            return  # acknowledged meanwhile, or displaced by wraparound
        del self._pending[sequence]
        self._count_expired()

    def _count_expired(self) -> None:
        self._expired += 1
        self._m_expired.inc()

    # ------------------------------------------------------------------
    # ACK path
    # ------------------------------------------------------------------

    def _on_switch_packet(self, packet: Packet, in_port: int) -> None:
        if (in_port != self.bridge.pi_port
                or packet.flow.dst_port != MP_ACK_PORT):
            return
        payload = packet.payload
        if len(payload) != ARQ_ACK_SIZE or payload[:2] != ARQ_ACK_MAGIC:
            return
        frame = self._pending.pop(int.from_bytes(payload[2:4], "big"), None)
        if frame is None:
            return  # duplicate ACK of a retransmitted frame
        self._acked += 1
        self._m_acked.inc()
        self._latency_total += self.sim.now - frame.first_sent

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    def stats(self) -> ArqStats:
        return ArqStats(
            sent=self._sent,
            acked=self._acked,
            retransmits=self._retransmits,
            expired=self._expired,
            delivery_rate=self._acked / self._sent if self._sent else 0.0,
            mean_latency=(self._latency_total / self._acked
                          if self._acked else float("nan")),
        )
