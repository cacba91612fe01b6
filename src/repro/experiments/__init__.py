"""Figure-regeneration experiments: one callable per paper artifact.

Every evaluation figure in the paper maps to a function here (see the
per-experiment index in DESIGN.md); the benchmark suite and the example
scripts are thin drivers over these.
"""

from .fig2 import Fig2AResult, Fig2BResult, fft_latency_cdf, multiswitch_fft
from .fig3 import Fig3Result, port_knocking_experiment
from .fig4 import (
    Fig4ABResult,
    Fig4CDResult,
    heavy_hitter_experiment,
    port_scan_experiment,
)
from .fig5 import (
    Fig5ABResult,
    Fig5CDResult,
    load_balancing_experiment,
    queue_monitor_experiment,
)
from .fig67 import (
    Fig6Panel,
    Fig7Result,
    fan_failure_experiment,
    fan_spectrogram_panel,
)
from .rigs import Testbed, build_testbed
from .scaling import ScalePoint, monitoring_scale_sweep
from .xbase import (
    EcnVsMdnResult,
    InbandVsOobResult,
    SketchVsMdnResult,
    ecn_vs_mdn,
    inband_vs_oob,
    sketch_vs_mdn,
)
from .xext import (
    ModemResult,
    RelayResult,
    SuperspreaderResult,
    UltrasoundResult,
    modem_experiment,
    relay_experiment,
    superspreader_experiment,
    ultrasound_experiment,
)
from .xext12 import (
    ArqPoint,
    FailoverResult,
    ResiliencePoint,
    Xext12Result,
    arq_loss_sweep,
    failover_experiment,
    resilience_experiment,
    resilience_sweep,
)
from .xext13 import (
    PolicyResult,
    SweepPoint,
    Xext13Result,
    bandwidth_sweep,
    spectrum_agility_experiment,
    spectrum_agility_run,
)
from .xext14 import (
    StormResult,
    WedgedLinkResult,
    Xext14Result,
    infra_experiment,
    storm_experiment,
    wedged_link_experiment,
)
from .xext15 import (
    FleetScalePoint,
    Xext15Result,
    fleet_experiment,
)
from .xext16 import (
    WorkloadMixPoint,
    WorkloadScalePoint,
    WorkloadSpeedupPoint,
    Xext16Result,
    measure_speedup,
    workload_experiment,
)
from .xext17 import (
    ChaosPoint,
    Xext17Result,
    chaos_experiment,
)
from .xcap import (
    BackendComparison,
    ConcurrencyPoint,
    GuardPoint,
    MultipathPoint,
    backend_ablation,
    concurrency_sweep,
    guard_spacing_sweep,
    multipath_sweep,
)

__all__ = [
    "ArqPoint",
    "BackendComparison",
    "ConcurrencyPoint",
    "EcnVsMdnResult",
    "Fig2AResult",
    "Fig2BResult",
    "Fig3Result",
    "Fig4ABResult",
    "Fig4CDResult",
    "Fig5ABResult",
    "Fig5CDResult",
    "FailoverResult",
    "Fig6Panel",
    "Fig7Result",
    "GuardPoint",
    "InbandVsOobResult",
    "ModemResult",
    "MultipathPoint",
    "RelayResult",
    "ResiliencePoint",
    "ScalePoint",
    "SketchVsMdnResult",
    "SuperspreaderResult",
    "Testbed",
    "UltrasoundResult",
    "Xext12Result",
    "arq_loss_sweep",
    "backend_ablation",
    "build_testbed",
    "concurrency_sweep",
    "ecn_vs_mdn",
    "failover_experiment",
    "fan_failure_experiment",
    "fan_spectrogram_panel",
    "fft_latency_cdf",
    "guard_spacing_sweep",
    "heavy_hitter_experiment",
    "inband_vs_oob",
    "load_balancing_experiment",
    "modem_experiment",
    "monitoring_scale_sweep",
    "multipath_sweep",
    "multiswitch_fft",
    "port_knocking_experiment",
    "port_scan_experiment",
    "queue_monitor_experiment",
    "relay_experiment",
    "resilience_experiment",
    "resilience_sweep",
    "sketch_vs_mdn",
    "spectrum_agility_experiment",
    "spectrum_agility_run",
    "superspreader_experiment",
    "ultrasound_experiment",
    "PolicyResult",
    "SweepPoint",
    "Xext13Result",
    "bandwidth_sweep",
    "StormResult",
    "WedgedLinkResult",
    "Xext14Result",
    "infra_experiment",
    "storm_experiment",
    "wedged_link_experiment",
    "FleetScalePoint",
    "Xext15Result",
    "fleet_experiment",
    "WorkloadMixPoint",
    "WorkloadScalePoint",
    "WorkloadSpeedupPoint",
    "Xext16Result",
    "measure_speedup",
    "workload_experiment",
    "ChaosPoint",
    "Xext17Result",
    "chaos_experiment",
]
