"""Network substrate: the Mininet / Zodiac FX replacement.

A deterministic discrete-event simulator providing hosts, links with
egress queues, match-action switches and an SDN control channel — the
environment the paper's Music-Defined mechanisms are grafted onto.
See DESIGN.md §2 for the substitution rationale.
"""

from .controlplane import (
    ControlChannel,
    ControllerBase,
    FlowMod,
    FlowModCommand,
    PacketIn,
    PortStats,
)
from .flowpop import (
    LABEL_CHURN,
    LABEL_ELEPHANT,
    LABEL_MOUSE,
    LABEL_SCAN,
    FlowPopulation,
)
from .flowtable import Action, ActionType, FlowEntry, FlowTable, Match
from .host import ByteCounterSampler, Host
from .link import Link, LinkDirection, Node
from .packet import FlowKey, Packet, Protocol
from .queueing import DEFAULT_CAPACITY, PacketQueue, QueueBands
from .routing import (
    install_all_routes,
    leaf_spine_topology,
    shortest_path,
    star_topology,
)
from .sim import PeriodicTimer, Simulator
from .stats import Counter, TimeSeries
from .switch import Switch
from .topology import (
    DEFAULT_BANDWIDTH,
    DEFAULT_DELAY,
    Topology,
    linear_topology,
    rhombus_topology,
    single_switch_topology,
)
from .traffic import (
    ConstantRateSource,
    FanInSource,
    FanOutSource,
    FlowMixWorkload,
    FlowSpec,
    OnOffSource,
    PoissonSource,
    PortScanSource,
    RampSource,
    TrafficSource,
)
from .workload import (
    WORKLOAD_MIXES,
    BucketPresenceTap,
    ChurnPattern,
    CountingHost,
    CountingSink,
    ElephantMicePattern,
    HostSink,
    OnOffPattern,
    PerFlowWorkloadSource,
    PortPresenceTap,
    PortScanPattern,
    PresenceSink,
    TrafficPattern,
    VectorizedFlowDriver,
    WorkloadSpec,
    build_workload,
    launch_reference_sources,
)

__all__ = [
    "Action",
    "ActionType",
    "BucketPresenceTap",
    "ByteCounterSampler",
    "ChurnPattern",
    "ConstantRateSource",
    "CountingHost",
    "CountingSink",
    "ElephantMicePattern",
    "FlowPopulation",
    "HostSink",
    "LABEL_CHURN",
    "LABEL_ELEPHANT",
    "LABEL_MOUSE",
    "LABEL_SCAN",
    "OnOffPattern",
    "PerFlowWorkloadSource",
    "PortPresenceTap",
    "PortScanPattern",
    "PresenceSink",
    "TrafficPattern",
    "VectorizedFlowDriver",
    "WORKLOAD_MIXES",
    "WorkloadSpec",
    "build_workload",
    "launch_reference_sources",
    "ControlChannel",
    "ControllerBase",
    "Counter",
    "DEFAULT_BANDWIDTH",
    "DEFAULT_CAPACITY",
    "DEFAULT_DELAY",
    "FanInSource",
    "FanOutSource",
    "FlowEntry",
    "FlowKey",
    "FlowMixWorkload",
    "FlowMod",
    "FlowModCommand",
    "FlowSpec",
    "FlowTable",
    "Host",
    "Link",
    "LinkDirection",
    "Match",
    "Node",
    "OnOffSource",
    "Packet",
    "PacketIn",
    "PacketQueue",
    "PeriodicTimer",
    "PoissonSource",
    "PortScanSource",
    "PortStats",
    "Protocol",
    "QueueBands",
    "RampSource",
    "Simulator",
    "Switch",
    "TimeSeries",
    "Topology",
    "TrafficSource",
    "linear_topology",
    "rhombus_topology",
    "single_switch_topology",
    "install_all_routes",
    "leaf_spine_topology",
    "shortest_path",
    "star_topology",
]
