"""The Music-Defined Networking core: protocol, planning, agent,
controller, state machines and the six paper applications."""

from .agent import MusicAgent
from .arq import ArqConfig, ArqStats, MpArqSender
from .array import MicrophoneArray
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
    PLAN_ABORT,
    PLAN_COMMIT,
    PLAN_PREPARE,
    WIRE_SIZE,
    MusicProtocolError,
    MusicProtocolMessage,
    PlanControlMessage,
)
from .spectrum import (
    FrequencyMove,
    InterferenceSentinel,
    LocalPlanParticipant,
    MigrationRecord,
    PiPlanParticipant,
    SpectrumAgilityManager,
    replan,
    shadowed_slots,
)
from .localize import (
    LocalizationResult,
    TdoaLocalizer,
    envelope_delay,
    gcc_phat_delay,
    onset_quality,
    tone_onset_time,
)
from .messaging import AcousticMessageService, ReceivedFrame
from .pi import MP_ACK_PORT, MP_PORT, PiBridge, RaspberryPi
from .relay import ToneRelay, build_relay_chain
from .telemetry import IntervalCounts, ToneCounter

__all__ = [
    "AcousticMessageService",
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
    "LocalizationResult",
    "MAX_DURATION_S",
    "MAX_FREQUENCY_HZ",
    "MAX_INTENSITY_DB",
    "MDNController",
    "MP_ACK_PORT",
    "MP_PORT",
    "MicrophoneArray",
    "MusicAgent",
    "PiBridge",
    "RaspberryPi",
    "MusicProtocolError",
    "MusicProtocolMessage",
    "PlanControlMessage",
    "PLAN_ABORT",
    "PLAN_COMMIT",
    "PLAN_PREPARE",
    "FrequencyMove",
    "InterferenceSentinel",
    "LocalPlanParticipant",
    "MigrationRecord",
    "PiPlanParticipant",
    "SpectrumAgilityManager",
    "replan",
    "shadowed_slots",
    "ReceivedFrame",
    "StateMachine",
    "TdoaLocalizer",
    "ToneRelay",
    "ToneCounter",
    "WIRE_SIZE",
    "build_relay_chain",
    "envelope_delay",
    "gcc_phat_delay",
    "onset_quality",
    "tone_onset_time",
    "sequence_machine",
]
