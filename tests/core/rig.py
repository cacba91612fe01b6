"""Shared wiring helpers for application tests: a single-switch or
rhombus testbed with the full acoustic path attached."""

from dataclasses import dataclass

from repro.audio import AcousticChannel, Microphone, Position, Speaker
from repro.core import FrequencyPlan, MDNController
from repro.core.agent import MusicAgent
from repro.net import (
    Action,
    ControlChannel,
    Simulator,
    Topology,
    rhombus_topology,
    single_switch_topology,
)


@dataclass
class Rig:
    """One assembled testbed: network + air + controller."""

    sim: Simulator
    topo: Topology
    channel: AcousticChannel
    plan: FrequencyPlan
    control: ControlChannel
    controller: MDNController
    agents: dict[str, MusicAgent]


def build_rig(
    shape: str = "single",
    default_action: Action | None = None,
    listen_interval: float = 0.1,
    plan_guard: float = 20.0,
    bandwidth_bps: float = 2_000_000.0,
) -> Rig:
    """Assemble a testbed with one MusicAgent per switch.

    Agents' speakers sit at distinct positions around the microphone at
    the origin, all within a metre or two (the paper's close-range,
    single-hop regime).
    """
    sim = Simulator()
    if shape == "single":
        topo = single_switch_topology(sim, 2, bandwidth_bps=bandwidth_bps,
                                      default_action=default_action)
    elif shape == "rhombus":
        topo = rhombus_topology(sim, bandwidth_bps=bandwidth_bps)
    else:
        raise ValueError(f"unknown shape {shape!r}")

    channel = AcousticChannel()
    plan = FrequencyPlan(guard_hz=plan_guard)
    control = ControlChannel(sim)
    agents = {}
    positions = [
        Position(0.6, 0.0, 0.0),
        Position(0.0, 0.8, 0.0),
        Position(-0.7, 0.3, 0.0),
        Position(0.4, -0.9, 0.0),
    ]
    for index, (name, switch) in enumerate(sorted(topo.switches.items())):
        control.register_switch(switch)
        agents[name] = MusicAgent(
            sim, channel, Speaker(positions[index % len(positions)]), name
        )
    controller = MDNController(
        sim, channel, Microphone(Position(), seed=11),
        listen_interval=listen_interval, control_channel=control,
    )
    return Rig(sim, topo, channel, plan, control, controller, agents)
