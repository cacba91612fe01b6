"""Acoustic liveness monitoring: hearing that a device is still there.

Section 1 lists "simple device booting, restart or configuration" and
diagnostics among the management tasks an out-of-band channel should
carry, and §7's UPS anecdote shows why knowing a box's true power state
matters.  This app is the *active* counterpart of the fan watchdog:
each monitored device chirps a per-device heartbeat tone on a fixed
period; the controller's :class:`~repro.core.health.ChannelHealthMonitor`
declares a device DEAD when it misses ``dead_misses`` consecutive beats
— a crash, power loss or speaker failure, detected with zero packets.
"""

from __future__ import annotations

from ...net.sim import PeriodicTimer, Simulator
from ..agent import MusicAgent
from ..controller import MDNController
from ..frequency_plan import FrequencyPlan
from ..health import ChannelHealthMonitor


class HeartbeatChirper:
    """Device-side half: one tone every ``period`` seconds."""

    def __init__(
        self,
        sim: Simulator,
        agent: MusicAgent,
        frequency: float,
        period: float = 1.0,
        tone_duration: float = 0.08,
        tone_level_db: float = 68.0,
        phase: float = 0.0,
    ) -> None:
        """``phase`` offsets the first beat within the period; a mesh
        staggers its devices' phases so beats do not all land in one
        capture window (short simultaneous tones at tight spacing merge
        spectrally — see DESIGN.md §5 on envelopes)."""
        if period <= 0:
            raise ValueError("period must be positive")
        if not 0.0 <= phase < period:
            raise ValueError(f"phase must be in [0, period), got {phase}")
        self.sim = sim
        self.agent = agent
        self.frequency = frequency
        self.period = period
        self.tone_duration = tone_duration
        self.tone_level_db = tone_level_db
        self.alive = True
        self.beats_emitted = 0
        self._timer: PeriodicTimer = sim.every(
            period, self._beat, start=sim.now + period / 2 + phase
        )

    def _beat(self) -> None:
        if not self.alive:
            return
        self.beats_emitted += 1
        self.agent.play(self.frequency, self.tone_duration,
                        self.tone_level_db)

    def kill(self) -> None:
        """The device dies: no more chirps (the failure under test)."""
        self.alive = False

    def revive(self) -> None:
        self.alive = True

    def stop(self) -> None:
        self._timer.stop()


def build_liveness_mesh(
    controller: MDNController,
    agents: dict[str, MusicAgent],
    plan: FrequencyPlan,
    period: float = 1.0,
    miss_threshold: int = 2,
) -> tuple[dict[str, HeartbeatChirper], ChannelHealthMonitor]:
    """Give every agent a heartbeat frequency and wire the monitor.

    Returns ``(chirpers_by_device, monitor)``; a device is down when its
    monitor state is ``ChannelHealth.DEAD``, i.e. after
    ``miss_threshold`` missed beats.  Call before ``controller.start()``.
    """
    devices: dict[str, float] = {}
    chirpers: dict[str, HeartbeatChirper] = {}
    names = sorted(agents)
    for index, name in enumerate(names):
        # Two-slot blocks double the effective spacing: short heartbeat
        # tones need more than the plan's base guard to coexist.
        allocation = plan.allocate(f"liveness/{name}", 2)
        frequency = allocation.frequency_for(0)
        devices[name] = frequency
        chirpers[name] = HeartbeatChirper(
            controller.sim, agents[name], frequency, period,
            phase=(index * period) / max(len(names), 1) % period,
        )
    monitor = ChannelHealthMonitor(controller, devices, period,
                                   dead_misses=miss_threshold)
    return chirpers, monitor
