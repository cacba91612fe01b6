"""``repro.fleet`` — sharded multi-room fleet simulation.

The paper's vision is a datacenter where every rack sings; one room,
one channel and one listener cannot hold a datacenter.  This package
scales the testbed out: a fleet of N acoustically isolated rooms (each
with its own Simulator, AcousticChannel and MDNController) is cut into
contiguous shards and executed either serially (the bit-identical
reference) or on a process pool, with per-room metrics rolled up into
one fleet-wide :class:`~repro.obs.MetricsRegistry` via the new merge
support.

Entry point::

    from repro.fleet import FleetSpec, run_fleet

    spec = FleetSpec(num_rooms=50, switches_per_room=20)   # 1000 switches
    serial = run_fleet(spec, backend="serial")
    fanned = run_fleet(spec, num_shards=8, backend="process")
    assert serial.identity_signature() == fanned.identity_signature()
    print(fanned.metrics.report())

:func:`run_fleet` is the fleet's one execution loop
(:mod:`repro.fleet.supervisor`), and it is self-healing on both
backends: it survives crashing, hanging, poisoning and duplicating
workers (see :mod:`repro.faults.process`) with hedged re-execution,
room-granular checkpoint resume
(:class:`~repro.fleet.checkpoint.CheckpointStore`), bounded retries
and per-shard quarantine — while keeping ``identity_signature()``
bit-identical to the fault-free serial reference.  The xext15
experiment (``python -m repro run xext15``) sweeps shard count against
wall-clock; the xext17 chaos sweep (``python -m repro run xext17``)
measures the exactness contract under injected faults.
"""

from __future__ import annotations

from .checkpoint import CheckpointError, CheckpointStore
from .room import RoomReport, run_room
from .runner import (
    FLEET_GAUGE_POLICY,
    FleetReport,
    ShardReport,
    build_fleet_report,
    merge_fleet_metrics,
)
from .supervisor import (
    ShardFailure,
    SupervisorPolicy,
    SupervisorStats,
    run_fleet,
    validate_shard_report,
)
from .worker import ShardJob, run_shard_job
from .specs import (
    DEFAULT_FLEET_SEED,
    DEFAULT_LISTEN_INTERVAL,
    FaultPlan,
    FleetConfigError,
    FleetSpec,
    RoomSpec,
    ShardSpec,
    ensure_picklable,
)

__all__ = [
    "DEFAULT_FLEET_SEED",
    "DEFAULT_LISTEN_INTERVAL",
    "FLEET_GAUGE_POLICY",
    "CheckpointError",
    "CheckpointStore",
    "FaultPlan",
    "FleetConfigError",
    "FleetReport",
    "FleetSpec",
    "RoomReport",
    "RoomSpec",
    "ShardFailure",
    "ShardJob",
    "ShardReport",
    "ShardSpec",
    "SupervisorPolicy",
    "SupervisorStats",
    "build_fleet_report",
    "ensure_picklable",
    "merge_fleet_metrics",
    "run_fleet",
    "run_room",
    "run_shard_job",
    "validate_shard_report",
]
