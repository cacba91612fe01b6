"""Drop-tail packet queues with occupancy instrumentation.

The traffic-engineering experiments (§6) revolve around queue
occupancy: switches chirp a tone whose frequency encodes which band
(<25, 25–75, >75 packets) the egress queue is in, measured "using the
traffic control Linux utility tc every 300 ms".  The queue here is the
tc-equivalent: a bounded FIFO whose instantaneous length can be sampled
at any simulation time, with drop and peak accounting.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .. import obs
from .packet import Packet
from .stats import TimeSeries

#: Default queue capacity, packets.  Comfortably above the paper's
#: 75-packet congestion threshold so the "congested" band is reachable
#: before drops dominate.
DEFAULT_CAPACITY = 150


class PacketQueue:
    """A bounded drop-tail FIFO.

    Parameters
    ----------
    capacity:
        Maximum queued packets; arrivals beyond this are dropped.
    name:
        Label used in recorded series.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._items: deque[Packet] = deque()
        self.enqueued = 0
        self.dequeued = 0
        self.flushed = 0
        self.dropped = 0
        self.peak_length = 0
        self.occupancy = TimeSeries(f"{name}.occupancy" if name else "occupancy")
        # Observability: one fleet-wide occupancy histogram and drop
        # counter shared by every queue (get-or-create) — the per-queue
        # breakdown stays in the TimeSeries / int counters above.
        self._obs = obs.get_registry()
        if self._obs is not None:
            self._m_occupancy = self._obs.histogram("queue.occupancy")
            self._m_drops = self._obs.counter("queue.drops")

    def __len__(self) -> int:
        return len(self._items)

    def enqueue(self, packet: Packet) -> bool:
        """Append a packet; returns False (and counts a drop) when full."""
        items = self._items
        if len(items) >= self.capacity:
            self.dropped += 1
            if self._obs is not None:
                self._m_drops.inc()
            return False
        items.append(packet)
        self.enqueued += 1
        if len(items) > self.peak_length:
            self.peak_length = len(items)
        return True

    def dequeue(self) -> Packet | None:
        """Pop the head packet, or None when empty."""
        if not self._items:
            return None
        self.dequeued += 1
        return self._items.popleft()

    def flush(self) -> None:
        """Discard every queued packet (a link failure), counted as
        ``flushed``: ``enqueued == dequeued + flushed + len(queue)``."""
        self.flushed += len(self._items)
        self._items.clear()

    def head(self) -> Packet | None:
        """The head packet without removing it."""
        return self._items[0] if self._items else None

    def sample(self, time: float) -> int:
        """Record and return the instantaneous occupancy (the tc poll)."""
        length = len(self._items)
        self.occupancy.record(time, length)
        if self._obs is not None:
            self._m_occupancy.observe(length)
        return length

    def bytes_queued(self) -> int:
        """Total bytes currently sitting in the queue."""
        return sum(packet.size_bytes for packet in self._items)


@dataclass(frozen=True)
class QueueBands:
    """The paper's three-level queue occupancy classification (§6).

    ``<low`` packets → ``"low"``, ``[low, high]`` → ``"medium"``,
    ``>high`` → ``"high"`` (congested).  Paper values: low=25, high=75.
    """

    low: int = 25
    high: int = 75

    def __post_init__(self) -> None:
        if not 0 < self.low < self.high:
            raise ValueError(f"need 0 < low < high, got {self.low}, {self.high}")

    def classify(self, queue_length: int) -> str:
        if queue_length < self.low:
            return "low"
        if queue_length <= self.high:
            return "medium"
        return "high"

    @property
    def levels(self) -> tuple[str, str, str]:
        return ("low", "medium", "high")
