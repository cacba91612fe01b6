"""Reusable testbed assembly for the figure experiments.

Every experiment needs the same skeleton the paper's Figure 1 shows: a
topology of switches, a Raspberry-Pi-equivalent :class:`MusicAgent` per
sounding device, one shared air channel, and an MDN controller with a
microphone.  :func:`build_testbed` assembles it; experiment modules add
their specific emitters, applications and workloads on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..audio import AcousticChannel, Microphone, Position, Speaker
from ..core import FrequencyPlan, MDNController
from ..core.agent import MusicAgent
from ..net import (
    Action,
    ControlChannel,
    Simulator,
    Topology,
    rhombus_topology,
    single_switch_topology,
)

#: Speaker placements around the microphone at the origin — the paper's
#: close-range, single-hop regime.
SPEAKER_RING = (
    Position(0.6, 0.0, 0.0),
    Position(0.0, 0.8, 0.0),
    Position(-0.7, 0.3, 0.0),
    Position(0.4, -0.9, 0.0),
    Position(-0.3, -0.7, 0.0),
    Position(0.9, 0.5, 0.0),
    Position(-0.8, -0.2, 0.0),
)


@dataclass
class Testbed:
    """An assembled experiment rig."""

    sim: Simulator
    topo: Topology
    channel: AcousticChannel
    plan: FrequencyPlan
    control: ControlChannel
    controller: MDNController
    agents: dict[str, MusicAgent] = field(default_factory=dict)

    def extra_agent(self, name: str, position: Position) -> MusicAgent:
        """A second speaker for a device running two MDN apps at once
        (one driver is half-duplex)."""
        agent = MusicAgent(self.sim, self.channel, Speaker(position), name)
        self.agents[name] = agent
        return agent


def build_testbed(
    shape: str = "single",
    default_action: Action | None = None,
    listen_interval: float = 0.1,
    plan_guard: float = 20.0,
    plan_low_hz: float = 400.0,
    bandwidth_bps: float = 2_000_000.0,
    mic_seed: int = 11,
) -> Testbed:
    """Assemble a testbed with one MusicAgent per switch.

    Parameters mirror the paper's knobs: topology shape (``"single"``
    or ``"rhombus"``), the plan's guard spacing (§3's 20 Hz) and the
    listening window.
    """
    sim = Simulator()
    if shape == "single":
        topo = single_switch_topology(
            sim, 2, bandwidth_bps=bandwidth_bps, default_action=default_action
        )
    elif shape == "rhombus":
        topo = rhombus_topology(sim, bandwidth_bps=bandwidth_bps)
    else:
        raise ValueError(f"unknown testbed shape {shape!r}")

    channel = AcousticChannel()
    plan = FrequencyPlan(low_hz=plan_low_hz, guard_hz=plan_guard)
    control = ControlChannel(sim)
    agents: dict[str, MusicAgent] = {}
    for index, (name, switch) in enumerate(sorted(topo.switches.items())):
        control.register_switch(switch)
        agents[name] = MusicAgent(
            sim, channel, Speaker(SPEAKER_RING[index % len(SPEAKER_RING)]), name
        )
    controller = MDNController(
        sim, channel, Microphone(Position(), seed=mic_seed),
        listen_interval=listen_interval, control_channel=control,
    )
    return Testbed(sim, topo, channel, plan, control, controller, agents)
