"""The Music-Defined Networking core: protocol, planning, agent,
controller, state machines and the six paper applications."""

from .agent import MusicAgent
from .arq import ArqConfig, ArqStats, MpArqSender
from .controller import MDNController
from .health import (
    ChannelHealth,
    ChannelHealthMonitor,
    HealthTransition,
)
from .frequency_plan import (
    DEFAULT_BAND,
    DEFAULT_GUARD_HZ,
    Allocation,
    FrequencyPlan,
    FrequencyPlanError,
)
from .fsm import FSMError, StateMachine, sequence_machine
from .protocol import (
    MAX_DURATION_S,
    MAX_FREQUENCY_HZ,
    MAX_INTENSITY_DB,
    WIRE_SIZE,
    MusicProtocolError,
    MusicProtocolMessage,
)
from .pi import MP_ACK_PORT, MP_PORT, PiBridge, RaspberryPi
from .relay import ToneRelay, build_relay_chain
from .telemetry import IntervalCounts, ToneCounter

__all__ = [
    "Allocation",
    "ArqConfig",
    "ArqStats",
    "ChannelHealth",
    "ChannelHealthMonitor",
    "HealthTransition",
    "MpArqSender",
    "DEFAULT_BAND",
    "DEFAULT_GUARD_HZ",
    "FSMError",
    "FrequencyPlan",
    "FrequencyPlanError",
    "IntervalCounts",
    "MAX_DURATION_S",
    "MAX_FREQUENCY_HZ",
    "MAX_INTENSITY_DB",
    "MDNController",
    "MP_ACK_PORT",
    "MP_PORT",
    "MusicAgent",
    "PiBridge",
    "RaspberryPi",
    "MusicProtocolError",
    "MusicProtocolMessage",
    "StateMachine",
    "ToneRelay",
    "ToneCounter",
    "WIRE_SIZE",
    "build_relay_chain",
    "sequence_machine",
]
