"""Network-side fault injector: the MP wire.

The paper's faithful MP path (``core/pi.py``) sends Music Protocol
bytes over a real simulated Ethernet link, and that link can lose
frames.  :class:`MpLinkFaults` installs on one
:class:`~repro.net.link.LinkDirection` (typically
``switch.ports[bridge.pi_port]``, the switch→Pi direction) and drops
each delivered packet independently with probability ``loss_rate``,
drawing from a ``(seed, label)`` stream.
"""

from __future__ import annotations

from ..net.link import LinkDirection
from ..net.packet import Packet
from .harness import FaultCounter, seeded_rng


class MpLinkFaults:
    """Bernoulli frame loss on one link direction."""

    def __init__(self, direction: LinkDirection, loss_rate: float = 0.0,
                 seed: int = 0, label: str = "mp_link") -> None:
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be in [0, 1], got {loss_rate}")
        self.direction = direction
        self.loss_rate = loss_rate
        self._rng = seeded_rng(seed, label)
        self._m_lost = FaultCounter("mp_frames_lost")
        self.counters = (self._m_lost,)
        direction.fault_model = self

    def on_deliver(self, packet: Packet) -> Packet | None:
        """Applied by :meth:`LinkDirection._deliver` at arrival time:
        ``None`` drops the packet, else it is delivered."""
        if self.loss_rate and self._rng.random() < self.loss_rate:
            self._m_lost.inc()
            return None
        return packet
