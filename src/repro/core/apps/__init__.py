"""The six Music-Defined Networking applications from the paper."""

from .evaluation import (
    PrecisionRecall,
    heavy_hitter_curve,
    heavy_hitter_truth_buckets,
    port_scan_curve,
    scan_truth_intervals,
    score_heavy_hitter,
    score_port_scan,
)
from .failover import FailoverEvent, FailoverManager, InbandFallback
from .fan_watchdog import (
    FanAlert,
    FanWatchdog,
    log_amplitude_difference,
    signature_bins,
)
from .heavy_hitter import (
    FlowToneMapper,
    HeavyHitterAlert,
    HeavyHitterDetectorApp,
    HeavyHitterEmitter,
)
from .liveness import HeartbeatChirper, build_liveness_mesh
from .load_balancer import LoadBalancerApp, SplitRule
from .port_knocking import KnockConfig, KnockEmitter, PortKnockingApp
from .port_scan import (
    PortScanDetectorApp,
    PortScanEmitter,
    PortToneMapper,
    ScanAlert,
)
from .superspreader import (
    AddressToneMapper,
    ChordEmitter,
    SpreaderAlert,
    SuperspreaderDetectorApp,
    VictimAlert,
)
from .queue_monitor import (
    CHIRP_PERIOD,
    FIG5_BAND_FREQUENCIES,
    BandToneMap,
    QueueChirper,
    QueueMonitorApp,
)

__all__ = [
    "AddressToneMapper",
    "BandToneMap",
    "ChordEmitter",
    "CHIRP_PERIOD",
    "FIG5_BAND_FREQUENCIES",
    "FailoverEvent",
    "FailoverManager",
    "FanAlert",
    "FanWatchdog",
    "InbandFallback",
    "FlowToneMapper",
    "HeavyHitterAlert",
    "HeavyHitterDetectorApp",
    "HeavyHitterEmitter",
    "HeartbeatChirper",
    "KnockConfig",
    "KnockEmitter",
    "LoadBalancerApp",
    "PortKnockingApp",
    "PortScanDetectorApp",
    "PrecisionRecall",
    "heavy_hitter_curve",
    "heavy_hitter_truth_buckets",
    "port_scan_curve",
    "scan_truth_intervals",
    "score_heavy_hitter",
    "score_port_scan",
    "PortScanEmitter",
    "PortToneMapper",
    "QueueChirper",
    "QueueMonitorApp",
    "ScanAlert",
    "SplitRule",
    "SpreaderAlert",
    "SuperspreaderDetectorApp",
    "VictimAlert",
    "build_liveness_mesh",
    "log_amplitude_difference",
    "signature_bins",
]
