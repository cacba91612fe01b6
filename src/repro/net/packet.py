"""Packets and flow identity.

Music-Defined Telemetry (§5) hashes "a flow tuple defined by source
port, destination port, source IP, destination IP and protocol type"
and maps the hash to a frequency.  That mapping must be *stable* across
processes and runs — a tone heard by the controller has to mean the
same flow tomorrow — so flow hashing here uses a keyed BLAKE2 digest
of the canonical tuple encoding rather than Python's randomized
``hash()``.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
from dataclasses import dataclass, field
from enum import IntEnum


class Protocol(IntEnum):
    """IANA protocol numbers for the protocols the testbed exercises."""

    ICMP = 1
    TCP = 6
    UDP = 17


#: Wire encoding of the numeric tail of a 5-tuple: ports, protocol.
_PORTS_PROTOCOL = struct.Struct("!HHB")


def stable_flow_hash(src_ip: str, dst_ip: str, src_port: int,
                     dst_port: int, protocol: int) -> int:
    """The 64-bit stable hash of a 5-tuple.

    This is the one definition of the flow-hash encoding, shared by
    :meth:`FlowKey.stable_hash` and the columnar flow tables
    (:class:`repro.net.flowpop.FlowPopulation`).
    """
    encoded = (f"{src_ip}|{dst_ip}|".encode()
               + _PORTS_PROTOCOL.pack(src_port, dst_port, protocol))
    digest = hashlib.blake2b(encoded, digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class FlowKey:
    """The classic 5-tuple identifying a flow.

    IP addresses are plain strings (e.g. ``"10.0.0.1"``); ports are
    integers in [0, 65535].
    """

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: Protocol = Protocol.TCP

    def __post_init__(self) -> None:
        for name, port in (("src_port", self.src_port), ("dst_port", self.dst_port)):
            if not 0 <= port <= 65_535:
                raise ValueError(f"{name} out of range: {port}")

    def reversed(self) -> "FlowKey":
        """The key of the reverse direction of this flow."""
        return FlowKey(
            self.dst_ip, self.src_ip, self.dst_port, self.src_port, self.protocol
        )

    def stable_hash(self) -> int:
        """A 64-bit hash that is identical across runs and processes.

        This is the hash the heavy-hitter application maps onto a
        frequency; determinism is what makes the acoustic encoding
        decodable by an independent listener.
        """
        return stable_flow_hash(self.src_ip, self.dst_ip, self.src_port,
                                self.dst_port, self.protocol)

    def __str__(self) -> str:
        return (
            f"{self.src_ip}:{self.src_port}->{self.dst_ip}:{self.dst_port}"
            f"/{self.protocol.name}"
        )


_packet_ids = itertools.count(1)


@dataclass
class Packet:
    """A data-plane packet.

    Attributes
    ----------
    flow:
        The 5-tuple this packet belongs to.
    size_bytes:
        On-wire size including headers.
    created_at:
        Simulation time the packet was created.
    ecn_capable / ecn_marked:
        ECN bits, used only by the in-band congestion baseline
        (:mod:`repro.baselines.ecn`).
    is_management:
        True for control/heartbeat traffic of the in-band management
        baseline (:mod:`repro.baselines.inband`).
    """

    flow: FlowKey
    size_bytes: int = 1_000
    created_at: float = 0.0
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    ecn_capable: bool = False
    ecn_marked: bool = False
    is_management: bool = False
    payload: bytes = b""
    hops: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive, got {self.size_bytes}")

    @property
    def size_bits(self) -> int:
        return self.size_bytes * 8
