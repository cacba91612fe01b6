"""Graceful degradation: fall back to in-band when the air goes bad.

The paper motivates the acoustic channel as the thing that survives
data-plane failure (§1); the dual is just as real — a dead speaker,
failed mic, or saturated room kills the *acoustic* path while the data
plane hums along.  :class:`FailoverManager` closes that gap: it watches
a :class:`~repro.core.health.ChannelHealthMonitor` and, per switch,

* on ``DEGRADED`` or ``DEAD``, **activates** the in-band baseline
  (:mod:`repro.baselines.inband` heartbeats across the data plane) so
  the switch stays monitored;
* on recovery to ``HEALTHY``, **deactivates** it and returns to the
  acoustic channel.

Every switch of direction is recorded as a :class:`FailoverEvent`
(also appended to ``controller.failover_events``) and counted through
:mod:`repro.obs`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ... import obs
from ...baselines.inband import HeartbeatMonitor, HeartbeatSender, HeartbeatStats
from ...net.host import Host
from ..controller import MDNController
from ..health import ChannelHealth, ChannelHealthMonitor, HealthTransition

@dataclass(frozen=True)
class FailoverEvent:
    """One management-plane switch of direction for one device."""

    device: str
    time: float
    action: str              #: ``"to_inband"`` or ``"to_acoustic"``
    health: ChannelHealth    #: the health verdict that triggered it


class InbandFallback:
    """The in-band stand-in for one switch: a pausable heartbeat pair.

    ``source`` is a host attached to the monitored switch's data plane,
    ``station`` the management host the heartbeats must reach.  The
    sender starts paused; the failover manager toggles it.
    """

    def __init__(self, source: Host, station: Host,
                 period: float = 0.5) -> None:
        self.source = source
        self.station = station
        self.sender = HeartbeatSender(source, station.ip, period)
        self.sender.stop()  # armed by the failover manager, not at build
        self.monitor = HeartbeatMonitor(station, self.sender)
        self.active = False

    def activate(self) -> None:
        if not self.active:
            self.active = True
            self.sender.start()

    def deactivate(self) -> None:
        if self.active:
            self.active = False
            self.sender.stop()

    def stats(self) -> HeartbeatStats:
        return self.monitor.stats(self.source.sim)


class FailoverManager:
    """Drives per-device in-band fallback from the verdicts of a
    sampling :class:`~repro.core.health.ChannelHealthMonitor`.

    Parameters
    ----------
    controller:
        The MDN controller; failover events are appended to its
        ``failover_events`` list (and kept on the manager).
    health_monitor:
        The verdict source; the manager subscribes to its transitions.
    fallbacks:
        ``{device_name: InbandFallback}`` — devices without an entry
        are watched but have nowhere to fail over to.
    failover_on:
        Health states that trigger fallback activation.
    """

    def __init__(
        self,
        controller: MDNController,
        health_monitor: ChannelHealthMonitor,
        fallbacks: dict[str, InbandFallback],
        failover_on: tuple[ChannelHealth, ...] = (
            ChannelHealth.DEGRADED, ChannelHealth.DEAD,
        ),
    ) -> None:
        self.controller = controller
        self.health_monitor = health_monitor
        self.fallbacks = dict(fallbacks)
        self.failover_on = failover_on
        self.events: list[FailoverEvent] = []
        self._m_to_inband = obs.counter("failover.to_inband")
        self._m_to_acoustic = obs.counter("failover.to_acoustic")
        health_monitor.on_transition(self._on_transition)

    def active_fallbacks(self) -> list[str]:
        """Devices currently monitored in-band."""
        return sorted(
            name for name, fallback in self.fallbacks.items()
            if fallback.active
        )

    def _on_transition(self, transition: HealthTransition) -> None:
        fallback = self.fallbacks.get(transition.emitter)
        if fallback is None:
            return
        if transition.state in self.failover_on and not fallback.active:
            fallback.activate()
            self._record(transition, "to_inband", self._m_to_inband)
        elif transition.state is ChannelHealth.HEALTHY and fallback.active:
            fallback.deactivate()
            self._record(transition, "to_acoustic", self._m_to_acoustic)

    def _record(self, transition: HealthTransition, action: str,
                counter) -> None:
        event = FailoverEvent(
            device=transition.emitter,
            time=transition.time,
            action=action,
            health=transition.state,
        )
        self.events.append(event)
        counter.inc()
        self.controller.failover_events.append(event)
