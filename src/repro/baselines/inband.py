"""In-band management baseline: heartbeats that share the data plane.

The paper's motivation (§1): "data plane or hardware failures could cut
off network management traffic as well, aborting important management
tasks".  This module makes that failure mode measurable.  A
:class:`HeartbeatSender` emits periodic management packets across the
(shared) network; a :class:`HeartbeatMonitor` at the management station
tracks delivery.  When the data plane congests or a link fails, in-band
heartbeats queue behind data traffic or vanish — while the acoustic
channel of the XBASE3 benchmark keeps delivering.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net.host import Host
from ..net.packet import FlowKey, Packet, Protocol
from ..net.sim import PeriodicTimer, Simulator
from ..net.stats import TimeSeries

#: Destination port conventionally used by the management heartbeats.
MANAGEMENT_PORT = 6653


class HeartbeatSender:
    """Emits one management packet every ``period`` seconds."""

    def __init__(
        self,
        host: Host,
        dst_ip: str,
        period: float = 0.5,
        size_bytes: int = 128,
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.host = host
        self.period = period
        self.size_bytes = size_bytes
        self.flow = FlowKey(host.ip, dst_ip, 6652, MANAGEMENT_PORT, Protocol.UDP)
        self.sequence = 0
        self.sent_log: list[tuple[int, float]] = []
        self._timer: "PeriodicTimer | None" = None
        self.start()

    def start(self) -> None:
        """(Re)start the beat timer; idempotent while running.  Lets a
        failover layer pause in-band heartbeats when the acoustic
        channel is healthy and resume them when it degrades."""
        if self._timer is None:
            self._timer = self.host.sim.every(
                self.period, self._beat, start=self.host.sim.now
            )

    def _beat(self) -> None:
        self.sequence += 1
        packet = Packet(
            self.flow,
            size_bytes=self.size_bytes,
            created_at=self.host.sim.now,
            is_management=True,
        )
        packet.payload = self.sequence.to_bytes(8, "big")
        self.sent_log.append((self.sequence, self.host.sim.now))
        self.host.send_packet(packet)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()
            self._timer = None


@dataclass
class HeartbeatStats:
    """Delivery summary over a run."""

    sent: int
    delivered: int
    lost: int
    delivery_rate: float
    max_gap: float
    mean_latency: float


class HeartbeatMonitor:
    """Management station: tracks heartbeat arrivals and gaps."""

    def __init__(self, host: Host, sender: HeartbeatSender) -> None:
        self.host = host
        self.sender = sender
        self.received: list[tuple[int, float, float]] = []  # (seq, sent, recv)
        self.latencies = TimeSeries(f"{host.name}.hb_latency")
        host.on_delivery(self._on_packet)

    def _on_packet(self, packet: Packet) -> None:
        if not packet.is_management or packet.flow.dst_port != MANAGEMENT_PORT:
            return
        sequence = int.from_bytes(packet.payload, "big")
        now = self.host.sim.now
        self.received.append((sequence, packet.created_at, now))
        self.latencies.record(now, now - packet.created_at)

    def stats(self, sim: Simulator) -> HeartbeatStats:
        """Summarize delivery as of the current simulation time."""
        sent = len(self.sender.sent_log)
        delivered = len(self.received)
        lost = sent - delivered
        arrival_times = [recv for _seq, _sent, recv in self.received]
        gaps = [
            second - first
            for first, second in zip(arrival_times, arrival_times[1:])
        ]
        if arrival_times:
            gaps.append(sim.now - arrival_times[-1])
        latencies = [recv - sent_t for _seq, sent_t, recv in self.received]
        return HeartbeatStats(
            sent=sent,
            delivered=delivered,
            lost=lost,
            delivery_rate=delivered / sent if sent else 0.0,
            max_gap=max(gaps) if gaps else float("inf"),
            mean_latency=sum(latencies) / len(latencies) if latencies else float("nan"),
        )

