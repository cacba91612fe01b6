"""The SDN control channel: PacketIn up, FlowMod down.

Music-Defined Networking works "with and without a Software-Defined
Network controller" (abstract).  When an SDN controller is present, the
MDN controller reacts to sounds by pushing OpenFlow Flow-MOD messages
(Figures 1, 3, 5).  This module provides that southbound channel for
the simulated switches: an asynchronous message pipe with configurable
latency, carrying the two message types the paper's use cases need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from .flowtable import Action, Match
from .packet import Packet
from .sim import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .switch import Switch


class FlowModCommand(Enum):
    ADD = "add"
    DELETE = "delete"


@dataclass(frozen=True)
class FlowMod:
    """A flow-table modification pushed to a switch."""

    match: Match
    action: Action | None = None
    priority: int = 0
    command: FlowModCommand = FlowModCommand.ADD
    #: Strict DELETE removes only entries whose priority also matches
    #: (OpenFlow DELETE_STRICT); non-strict ignores priority.
    strict: bool = False

    def __post_init__(self) -> None:
        if self.command is FlowModCommand.ADD and self.action is None:
            raise ValueError("FlowMod ADD requires an action")


@dataclass(frozen=True)
class PacketIn:
    """A table-miss (or explicit punt) reported by a switch."""

    switch_name: str
    packet: Packet
    in_port: int
    time: float


class ControllerBase:
    """Interface the control channel delivers PacketIns to."""

    def handle_packet_in(self, message: PacketIn) -> None:  # pragma: no cover
        raise NotImplementedError


class ControlChannel:
    """An asynchronous southbound channel between controller and switches.

    Parameters
    ----------
    sim:
        The shared simulator.
    latency:
        One-way message latency, seconds.  The paper's point about
        in-band management is that this channel can *fail with the data
        plane*; the out-of-band comparisons (XBASE benchmarks) exercise
        exactly that by cutting it.
    """

    def __init__(self, sim: Simulator, latency: float = 0.001) -> None:
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        self.sim = sim
        self.latency = latency
        self.up = True
        self._switches: dict[str, "Switch"] = {}
        self._controller: ControllerBase | None = None
        self.messages_dropped = 0
        self.flow_mods_sent = 0
        self.packet_ins_sent = 0

    def register_switch(self, switch: "Switch") -> None:
        if switch.name in self._switches:
            raise ValueError(f"switch {switch.name!r} already registered")
        self._switches[switch.name] = switch
        switch.control_channel = self

    def register_controller(self, controller: ControllerBase) -> None:
        self._controller = controller

    def fail(self) -> None:
        """Sever the control channel (management-plane outage)."""
        self.up = False

    def restore(self) -> None:
        self.up = True

    # ------------------------------------------------------------------
    # Northbound: switch → controller
    # ------------------------------------------------------------------

    def send_packet_in(self, switch: "Switch", packet: Packet, in_port: int) -> None:
        """Deliver a PacketIn to the controller after the channel latency."""
        if not self.up or self._controller is None:
            self.messages_dropped += 1
            return
        message = PacketIn(switch.name, packet, in_port, self.sim.now)
        self.packet_ins_sent += 1
        self.sim.schedule(self.latency, self._controller.handle_packet_in, message)

    # ------------------------------------------------------------------
    # Southbound: controller → switch
    # ------------------------------------------------------------------

    def send_flow_mod(self, switch_name: str, flow_mod: FlowMod) -> None:
        """Push a FlowMod to a switch after the channel latency."""
        switch = self._switches.get(switch_name)
        if switch is None:
            raise ValueError(f"unknown switch {switch_name!r}")
        if not self.up:
            self.messages_dropped += 1
            return
        self.flow_mods_sent += 1
        self.sim.schedule(self.latency, switch.apply_flow_mod, flow_mod)
