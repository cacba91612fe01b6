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
from ..infra import CircuitBreaker, RetryPolicy, RetrySchedule, TokenBucket
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
    #: Whether the breaker was already told this frame looks lost
    #: (early-suspect signal); prevents double-counting at expiry.
    suspected: bool = False
    #: Optional delivery callbacks — ``on_ack(sequence, latency)`` when
    #: the frame is acknowledged, ``on_expire(sequence)`` when its
    #: deadline passes unacknowledged.  The migration protocol uses
    #: these to learn which participants are PREPAREd.
    on_ack: object = None
    on_expire: object = None

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
    #: Sends refused immediately by an OPEN circuit breaker.
    fast_failed: int = 0
    #: Sends refused by the admission token bucket.
    shed: int = 0


class MpArqSender:
    """Reliable MP delivery over a :class:`~repro.core.pi.PiBridge`.

    Intercepts ACK frames with a switch receive hook (the Pi port is
    outside the flow table, so the hook is the only consumer); pending
    frames retransmit on a per-frame timer with exponential backoff
    until acknowledged or past the deadline.

    Parameters
    ----------
    breaker:
        Optional :class:`repro.infra.CircuitBreaker` guarding this
        link.  Sends are fast-failed while it is OPEN; ACKs feed it
        successes; a frame reaching ``suspect_after`` unacknowledged
        transmissions (or its deadline) feeds it a failure, so a wedged
        Pi trips the breaker long before every frame rides out its full
        delivery deadline.
    admission:
        Optional :class:`repro.infra.TokenBucket`; sends beyond its
        rate are shed with a counted drop instead of growing
        ``_pending`` without bound.
    suspect_after:
        Unacknowledged transmissions after which a frame is reported to
        the breaker as an early failure (the deadline still governs the
        frame's own fate).
    """

    def __init__(self, bridge: PiBridge,
                 config: ArqConfig | None = None,
                 breaker: CircuitBreaker | None = None,
                 admission: TokenBucket | None = None,
                 suspect_after: int = 2) -> None:
        if suspect_after < 1:
            raise ValueError("suspect_after must be >= 1")
        self.sim = bridge.sim
        self.bridge = bridge
        self.config = config or ArqConfig()
        self.breaker = breaker
        self.admission = admission
        self.suspect_after = suspect_after
        self._pending: dict[int, _PendingFrame] = {}
        self._next_sequence = 0
        self.acked_log: list[tuple[int, float]] = []   # (seq, latency)
        self.expired_log: list[int] = []
        self.peak_in_flight = 0
        # Per-instance delivery tallies: stats() must stay correct with
        # several senders alive (e.g. one per Pi bridge), so it never
        # reads the shared obs namespace.
        self._sent = 0
        self._acked = 0
        self._retransmits = 0
        self._expired = 0
        self._fast_failed = 0
        self._shed = 0
        self._m_sent = obs.counter("arq.mp_frames_sent")
        self._m_retransmits = obs.counter("arq.mp_retransmits")
        self._m_acked = obs.counter("arq.mp_frames_acked")
        self._m_expired = obs.counter("arq.mp_frames_expired")
        self._m_fast_failed = obs.counter("arq.mp_fast_failed")
        self._m_shed = obs.counter("arq.mp_shed")
        bridge.switch.on_receive(self._on_switch_packet)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(self, message: MusicProtocolMessage) -> int:
        """Frame, transmit, and track one MP message; returns its
        sequence number."""
        return self.send_wire(message.marshal())

    def send_wire(self, payload: bytes, on_ack=None, on_expire=None) -> int:
        """Frame, transmit, and track one raw payload under the ARQ
        envelope (``b"MD" + seq + payload``); returns its sequence
        number.  ``on_ack(sequence, latency)`` / ``on_expire(sequence)``
        fire when the frame is acknowledged or its deadline passes.

        Sends refused by the admission bucket or an OPEN breaker return
        ``-1`` and fire ``on_expire(-1)`` on the next event-loop turn —
        the caller learns immediately instead of after the deadline."""
        now = self.sim.now
        if self.admission is not None and not self.admission.admit(now):
            self._shed += 1
            self._m_shed.inc()
            if on_expire is not None:
                self.sim.schedule_at(now, on_expire, -1)
            return -1
        if self.breaker is not None and not self.breaker.allow(now):
            self._fast_failed += 1
            self._m_fast_failed.inc()
            if on_expire is not None:
                self.sim.schedule_at(now, on_expire, -1)
            return -1
        sequence = self._next_sequence
        self._next_sequence = (self._next_sequence + 1) % 65_536
        stale = self._pending.pop(sequence, None)
        if stale is not None:
            # 16-bit wraparound landed on a frame still in flight: it
            # can no longer be acknowledged unambiguously, so expire it
            # now; its timers die on the identity guard.
            self._count_expired(sequence, stale)
        wire = ARQ_DATA_MAGIC + sequence.to_bytes(2, "big") + payload
        frame = _PendingFrame(
            wire=wire,
            first_sent=now,
            schedule=self.config.schedule(now, seed=sequence),
            on_ack=on_ack,
            on_expire=on_expire,
        )
        self._pending[sequence] = frame
        if len(self._pending) > self.peak_in_flight:
            self.peak_in_flight = len(self._pending)
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
        if (self.breaker is not None and not frame.suspected
                and frame.attempts > self.suspect_after):
            # Early-failure signal: several transmissions, no ACK.
            frame.suspected = True
            self.breaker.record_failure(self.sim.now)
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
        self._count_expired(sequence, frame)

    def _count_expired(self, sequence: int, frame: _PendingFrame) -> None:
        self._expired += 1
        self._m_expired.inc()
        self.expired_log.append(sequence)
        if self.breaker is not None and not frame.suspected:
            self.breaker.record_failure(self.sim.now)
        if frame.on_expire is not None:
            frame.on_expire(sequence)

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
        sequence = int.from_bytes(payload[2:4], "big")
        frame = self._pending.pop(sequence, None)
        if frame is None:
            return  # duplicate ACK of a retransmitted frame
        self._acked += 1
        self._m_acked.inc()
        if self.breaker is not None:
            self.breaker.record_success(self.sim.now)
        latency = self.sim.now - frame.first_sent
        self.acked_log.append((sequence, latency))
        if frame.on_ack is not None:
            frame.on_ack(sequence, latency)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    def stats(self) -> ArqStats:
        latencies = [latency for _seq, latency in self.acked_log]
        return ArqStats(
            sent=self._sent,
            acked=self._acked,
            retransmits=self._retransmits,
            expired=self._expired,
            delivery_rate=self._acked / self._sent if self._sent else 0.0,
            mean_latency=(sum(latencies) / len(latencies)
                          if latencies else float("nan")),
            fast_failed=self._fast_failed,
            shed=self._shed,
        )

