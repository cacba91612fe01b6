"""Figure-regeneration experiments: one callable per paper artifact.

Every evaluation figure in the paper maps to a function here (see the
per-experiment index in DESIGN.md); the CLI, the benchmark suite and
the example scripts are thin drivers over these.  The result and point
dataclasses live in the experiment modules; every result the CLI runs
is a :class:`repro.artifact.Result`.
"""

from .fig2 import fft_latency_cdf, multiswitch_fft
from .fig3 import port_knocking_experiment
from .fig4 import heavy_hitter_experiment, port_scan_experiment
from .fig5 import load_balancing_experiment, queue_monitor_experiment
from .fig67 import (
    fan_failure_experiment,
    fan_failure_rooms,
    fan_spectrogram_experiment,
    fan_spectrogram_panel,
)
from .rigs import build_testbed
from .scaling import monitoring_scale_sweep
from .xbase import (
    baseline_experiment,
    ecn_vs_mdn,
    inband_vs_oob,
    sketch_vs_mdn,
)
from .xcap import concurrency_sweep, guard_spacing_sweep, multipath_sweep
from .xext import (
    extensions_experiment,
    modem_experiment,
    relay_experiment,
    superspreader_experiment,
    ultrasound_experiment,
)
from .xext12 import (
    arq_loss_sweep,
    failover_experiment,
    resilience_experiment,
    resilience_sweep,
)
from .xext15 import fleet_experiment
from .xext16 import measure_speedup, workload_experiment
from .xext17 import chaos_experiment
