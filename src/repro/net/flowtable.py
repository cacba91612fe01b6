"""OpenFlow-style match-action flow tables.

The paper's controller reacts to sounds by sending "an OpenFlow
Flow-MOD message" (Figures 1 and 5): opening a closed port installs a
forwarding entry (§4), and load balancing installs a rule that splits
traffic across two ports (§6).  This module provides the switch-side
abstraction those messages program: prioritized wildcard matches bound
to forwarding actions, with per-entry counters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

from .packet import Packet, Protocol


@dataclass(frozen=True)
class Match:
    """A wildcardable match over the 5-tuple plus ingress port.

    ``None`` fields match anything.  ``Match()`` is the catch-all.
    """

    in_port: int | None = None
    src_ip: str | None = None
    dst_ip: str | None = None
    src_port: int | None = None
    dst_port: int | None = None
    protocol: Protocol | None = None

    def matches(self, packet: Packet, in_port: int) -> bool:
        # Field by field, stopping at the first mismatch: this runs once
        # per table entry per packet.
        if self.in_port is not None and self.in_port != in_port:
            return False
        flow = packet.flow
        if self.src_ip is not None and self.src_ip != flow.src_ip:
            return False
        if self.dst_ip is not None and self.dst_ip != flow.dst_ip:
            return False
        if self.src_port is not None and self.src_port != flow.src_port:
            return False
        if self.dst_port is not None and self.dst_port != flow.dst_port:
            return False
        return self.protocol is None or self.protocol == flow.protocol

    def specificity(self) -> int:
        """Number of non-wildcard fields (used as a tiebreaker)."""
        fields = (
            self.in_port,
            self.src_ip,
            self.dst_ip,
            self.src_port,
            self.dst_port,
            self.protocol,
        )
        return sum(1 for value in fields if value is not None)


class ActionType(Enum):
    """What to do with a matched packet."""

    FORWARD = "forward"  #: send out one port
    DROP = "drop"  #: discard
    FLOOD = "flood"  #: send out every port except the ingress
    SPLIT = "split"  #: hash/round-robin across several ports (§6)
    CONTROLLER = "controller"  #: punt to the controller (PacketIn)


@dataclass(frozen=True)
class Action:
    """A forwarding action; construct via the class methods."""

    type: ActionType
    out_ports: tuple[int, ...] = ()

    @classmethod
    def forward(cls, port: int) -> "Action":
        return cls(ActionType.FORWARD, (port,))

    @classmethod
    def drop(cls) -> "Action":
        return cls(ActionType.DROP)

    @classmethod
    def flood(cls) -> "Action":
        return cls(ActionType.FLOOD)

    @classmethod
    def split(cls, ports: list[int]) -> "Action":
        """Balance matched traffic across ``ports`` (per-packet
        round-robin, matching the paper's two-route split of Fig 5a)."""
        if len(ports) < 2:
            raise ValueError("split requires at least two ports")
        return cls(ActionType.SPLIT, tuple(ports))

    @classmethod
    def controller(cls) -> "Action":
        return cls(ActionType.CONTROLLER)


_entry_ids = itertools.count(1)


@dataclass
class FlowEntry:
    """One row of a flow table, with OpenFlow-style counters."""

    match: Match
    action: Action
    priority: int = 0
    entry_id: int = field(default_factory=lambda: next(_entry_ids))
    packet_count: int = 0
    byte_count: int = 0
    _round_robin: int = field(default=0, repr=False)

    def account(self, packet: Packet) -> None:
        self.packet_count += 1
        self.byte_count += packet.size_bytes

    def next_split_port(self) -> int:
        """Round-robin port selection for SPLIT actions."""
        if self.action.type is not ActionType.SPLIT:
            raise ValueError("next_split_port only applies to SPLIT entries")
        port = self.action.out_ports[self._round_robin % len(self.action.out_ports)]
        self._round_robin += 1
        return port


class FlowTable:
    """A prioritized flow table.

    Lookup returns the highest-priority matching entry; among equal
    priorities the more specific match wins, then the older entry.
    """

    def __init__(self) -> None:
        self._entries: list[FlowEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> tuple[FlowEntry, ...]:
        return tuple(self._entries)

    def add(self, entry: FlowEntry) -> FlowEntry:
        """Install an entry, replacing any entry with an identical
        (match, priority) pair — OpenFlow ADD semantics."""
        self._entries = [
            existing
            for existing in self._entries
            if not (
                existing.match == entry.match
                and existing.priority == entry.priority
            )
        ]
        self._entries.append(entry)
        self._entries.sort(
            key=lambda e: (-e.priority, -e.match.specificity(), e.entry_id)
        )
        return entry

    def install(
        self,
        match: Match,
        action: Action,
        priority: int = 0,
    ) -> FlowEntry:
        """Convenience wrapper around :meth:`add`."""
        return self.add(FlowEntry(match, action, priority))

    def remove(self, match: Match, priority: int | None = None) -> int:
        """Delete entries with this match (and priority, if given).
        Returns how many were removed."""
        before = len(self._entries)
        self._entries = [
            entry
            for entry in self._entries
            if not (
                entry.match == match
                and (priority is None or entry.priority == priority)
            )
        ]
        return before - len(self._entries)

    def lookup(self, packet: Packet, in_port: int) -> FlowEntry | None:
        """The winning entry for a packet, or None on a table miss."""
        for entry in self._entries:
            if entry.match.matches(packet, in_port):
                return entry
        return None
