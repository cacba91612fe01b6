"""Port knocking over sound: the Section 4 state-processing use case.

The switch starts *closed*: its default action drops everything.  A
sender "knocks" by causing the switch to emit three tones — each tone's
frequency encodes a destination port number — and the MDN controller
runs a finite state machine over the tone sequence.  When the three
knocks arrive in the correct order, the controller installs a flow
entry opening the protected port ("an incoming packet with port x is
associated to a forwarding action when the port is open, but to a drop
action when the system is in any other state").

Wiring: the switch emits a knock tone whenever it receives a packet for
one of the knock ports (even though it drops the packet — the paper's
switches signal on *received* traffic, which is precisely what makes
this an authentication channel: the data path is closed, the sound
path is not).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...net.controlplane import FlowMod
from ...net.flowtable import Action, Match
from ...net.packet import Packet
from ...net.switch import Switch
from ..agent import MusicAgent
from ..controller import MDNController
from ..frequency_plan import Allocation
from ..fsm import StateMachine, sequence_machine


@dataclass
class KnockConfig:
    """The shared secret: which ports, in which order, open what.

    Attributes
    ----------
    knock_ports:
        The secret sequence of destination ports (the paper uses 3).
    protected_port:
        The port opened on success.
    allocation:
        The switch's frequency block; knock port ``i``'s tone is
        ``allocation.frequency_for(i)`` and the mapping is known to
        both sides ("in the controller, we know what frequencies are
        associated with each port for a switch").
    tone_duration, tone_level_db:
        The knock tone parameters.
    """

    knock_ports: list[int]
    protected_port: int
    allocation: Allocation
    tone_duration: float = 0.15
    tone_level_db: float = 70.0

    def __post_init__(self) -> None:
        if len(self.knock_ports) < 1:
            raise ValueError("need at least one knock port")
        if len(set(self.knock_ports)) != len(self.knock_ports):
            raise ValueError("knock ports must be distinct")
        if self.protected_port in self.knock_ports:
            raise ValueError("protected port must not be a knock port")
        if len(self.allocation) < len(self.knock_ports):
            raise ValueError(
                f"allocation has {len(self.allocation)} frequencies, "
                f"need {len(self.knock_ports)}"
            )

    def frequency_of(self, port: int) -> float:
        """The tone frequency assigned to a knock port."""
        return self.allocation.frequency_for(self.knock_ports.index(port))

    def port_of(self, frequency: float) -> int:
        """Inverse mapping used by the listening side."""
        return self.knock_ports[self.allocation.index_of(frequency)]


class KnockEmitter:
    """Switch-side half: turns knock-port packets into tones.

    Attach to the closed switch; packets to the knock ports still get
    dropped by the flow table, but each one triggers an MP message.
    A refractory period prevents a packet burst from emitting a tone
    storm (the speaker is half-duplex anyway).
    """

    def __init__(
        self,
        switch: Switch,
        agent: MusicAgent,
        config: KnockConfig,
        refractory: float = 0.3,
    ) -> None:
        self.switch = switch
        self.agent = agent
        self.config = config
        self.refractory = refractory
        self._last_emission: dict[int, float] = {}
        switch.on_receive(self._on_packet)

    def _on_packet(self, packet: Packet, in_port: int) -> None:
        port = packet.flow.dst_port
        if port not in self.config.knock_ports:
            return
        now = self.switch.sim.now
        last = self._last_emission.get(port)
        if last is not None and now - last < self.refractory:
            return
        self._last_emission[port] = now
        self.agent.play(
            self.config.frequency_of(port),
            self.config.tone_duration,
            self.config.tone_level_db,
        )


class PortKnockingApp:
    """Controller-side half: the FSM and the Flow-MOD on acceptance."""

    def __init__(
        self,
        controller: MDNController,
        switch_name: str,
        dst_ip: str,
        config: KnockConfig,
    ) -> None:
        self.controller = controller
        self.switch_name = switch_name
        self.dst_ip = dst_ip
        self.config = config
        self.machine: StateMachine = sequence_machine(list(config.knock_ports))
        self.opened_at: float | None = None
        self.knock_log: list[tuple[float, int]] = []
        frequencies = [config.frequency_of(port) for port in config.knock_ports]
        controller.watch(frequencies, on_onset=self._on_tone)

    @property
    def is_open(self) -> bool:
        return self.opened_at is not None

    def _on_tone(self, event) -> None:
        if self.is_open:
            return
        port = self.config.port_of(event.frequency)
        self.knock_log.append((event.time, port))
        self.machine.feed(port)
        if self.machine.accepted:
            self._open(event.time)

    def _open(self, time: float) -> None:
        self.opened_at = time
        self.controller.send_flow_mod(
            self.switch_name,
            FlowMod(
                match=Match(
                    dst_ip=self.dst_ip, dst_port=self.config.protected_port
                ),
                action=Action.forward(self._port_to_destination()),
                priority=100,
            ),
        )

    def _port_to_destination(self) -> int:
        """Resolved lazily by the experiment wiring; stored here."""
        if not hasattr(self, "_out_port"):
            raise RuntimeError(
                "set_output_port() must be called before the knock completes"
            )
        return self._out_port

    def set_output_port(self, out_port: int) -> None:
        """Tell the app which switch port leads to the protected host."""
        self._out_port = out_port
