"""The software switch: match-action forwarding with event hooks.

This is the Zodiac FX / Open vSwitch stand-in.  Beyond plain
forwarding it exposes the two integration points Music-Defined
Networking needs:

* **packet hooks** — callbacks fired on every received/forwarded
  packet, which is where a :class:`~repro.core.agent.MusicAgent`
  attaches to turn packet events into Music Protocol messages (e.g.
  "when hit by a packet, the switch plays a sound whose frequency is
  based on the destination port number", §5);
* **queue sampling** — instantaneous egress-queue occupancy, the §6
  signal chirped every 300 ms.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .. import obs
from .flowtable import Action, ActionType, FlowTable
from .link import Node
from .packet import Packet
from .sim import Simulator
from .stats import Counter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .controlplane import ControlChannel, FlowMod

#: Hook signature: (packet, in_port).
PacketHook = Callable[[Packet, int], None]

#: Hook signature: (packet, in_port, out_port).
ForwardHook = Callable[[Packet, int, int], None]


class Switch(Node):
    """A store-and-forward match-action switch.

    Parameters
    ----------
    sim:
        Shared simulator.
    name:
        Unique switch name (used in control-plane addressing).
    default_action:
        What to do on a table miss: ``Action.drop()`` (default, the
        closed-by-default posture the port-knocking experiment needs),
        ``Action.flood()``, or ``Action.controller()``.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        default_action: Action | None = None,
    ) -> None:
        super().__init__(sim, name)
        self.flow_table = FlowTable()
        self.default_action = default_action or Action.drop()
        self.control_channel: "ControlChannel | None" = None
        self.packets_received = Counter(f"{name}.packets_received")
        self.packets_forwarded = Counter(f"{name}.packets_forwarded")
        self.packets_dropped = Counter(f"{name}.packets_dropped")
        self.bytes_received = Counter(f"{name}.bytes_received")
        self._receive_hooks: list[PacketHook] = []
        self._forward_hooks: list[ForwardHook] = []
        # Observability: mirror the data-plane totals as pull gauges so
        # metric reports/exports include them at zero hot-path cost.
        registry = obs.get_registry()
        if registry is not None:
            for counter in (self.packets_received, self.packets_forwarded,
                            self.packets_dropped, self.bytes_received):
                registry.gauge_fn(f"switch.{counter.name}",
                                  lambda c=counter: c.total)

    # ------------------------------------------------------------------
    # Hooks (where MusicAgents attach)
    # ------------------------------------------------------------------

    def on_receive(self, hook: PacketHook) -> None:
        """Call ``hook(packet, in_port)`` for every packet received."""
        self._receive_hooks.append(hook)

    def on_forward(self, hook: ForwardHook) -> None:
        """Call ``hook(packet, in_port, out_port)`` for every packet
        forwarded."""
        self._forward_hooks.append(hook)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    def receive(self, packet: Packet, in_port: int) -> None:
        self.packets_received.total += 1
        self.bytes_received.total += packet.size_bytes
        for hook in self._receive_hooks:
            hook(packet, in_port)

        entry = self.flow_table.lookup(packet, in_port)
        if entry is None:
            action = self.default_action
        else:
            entry.account(packet)
            action = entry.action
        kind = action.type
        if kind is ActionType.FORWARD:
            self._forward(packet, in_port, action.out_ports[0])
        elif kind is ActionType.SPLIT:
            if entry is None:
                raise ValueError("SPLIT action requires a flow entry")
            self._forward(packet, in_port, entry.next_split_port())
        elif kind is ActionType.DROP:
            self.packets_dropped.total += 1
        elif kind is ActionType.FLOOD:
            for port in self.ports:
                if port != in_port:
                    self._forward(packet, in_port, port)
        elif kind is ActionType.CONTROLLER:
            if self.control_channel is not None:
                self.control_channel.send_packet_in(self, packet, in_port)
            else:
                self.packets_dropped.total += 1
        else:  # pragma: no cover - exhaustive over ActionType
            raise ValueError(f"unhandled action type {kind}")

    def _forward(self, packet: Packet, in_port: int, out_port: int) -> None:
        direction = self.ports.get(out_port)
        if direction is None:
            self.packets_dropped.total += 1
            return
        for hook in self._forward_hooks:
            hook(packet, in_port, out_port)
        if direction.send(packet):
            self.packets_forwarded.total += 1
        else:
            self.packets_dropped.total += 1

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------

    def apply_flow_mod(self, flow_mod: "FlowMod") -> None:
        """Apply a FlowMod received from the control channel."""
        from .controlplane import FlowModCommand

        if flow_mod.command is FlowModCommand.ADD:
            assert flow_mod.action is not None  # validated at construction
            self.flow_table.install(
                flow_mod.match, flow_mod.action, flow_mod.priority
            )
        else:
            self.flow_table.remove(
                flow_mod.match,
                flow_mod.priority if flow_mod.strict else None,
            )
