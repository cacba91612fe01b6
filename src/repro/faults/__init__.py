"""``repro.faults`` — deterministic fault injection for the whole rig.

The paper evaluates the happy path plus one noisy-song scenario; a
production acoustic management plane must survive dead speakers,
lossy Music-Protocol links and misbehaving worker processes.  This
package injects exactly those failures, **deterministically**:

* every injector draws from a ``(seed, label)``-derived generator, so a
  run is reproducible bit-for-bit from one seed;
* fault activations are **sim-time scheduled** — state flips ride the
  same event heap as the experiment, never wall clock;
* every injected fault is counted through :mod:`repro.obs`
  (``faults.*`` counters), so an instrumented run shows exactly what
  was thrown at the system;
* injectors act through the existing components' own interfaces
  (``AcousticChannel.mute``, ``LinkDirection.fault_model``) —
  experiment code keeps building the same rigs and *adds* faults, it
  is never rewritten around them.

Fault taxonomy
--------------

================  ==============================  =======================
fault             injector                        plugs into
================  ==============================  =======================
speaker dropout   :class:`AcousticFaults`         channel tone schedule
MP frame loss     :class:`MpLinkFaults`           switch→Pi link delivery
worker crash      :class:`ProcessFaultPlan`       fleet worker processes
worker straggler  :class:`ProcessFaultPlan`       fleet worker processes
poisoned report   :class:`ProcessFaultPlan`       fleet result path
duplicate result  :class:`ProcessFaultPlan`       fleet result path
================  ==============================  =======================

XEXT12 runs the first two.  The last four are *process-level* faults
(see :mod:`repro.faults.process`): they attack the execution substrate
the fleet runs on rather than the simulated acoustics, and the fleet's
one execution loop, :func:`~repro.fleet.run_fleet`, is the recovery
layer built to absorb them (XEXT17).
"""

from __future__ import annotations

from .audio import AcousticFaults
from .harness import FaultHarness, seeded_rng
from .net import MpLinkFaults
from .process import (
    PoisonedShardReport,
    ProcessFaultPlan,
    ShardFaultDecision,
    SimulatedWorkerCrash,
    shard_fault_decision,
)

__all__ = [
    "AcousticFaults",
    "FaultHarness",
    "MpLinkFaults",
    "PoisonedShardReport",
    "ProcessFaultPlan",
    "ShardFaultDecision",
    "SimulatedWorkerCrash",
    "seeded_rng",
    "shard_fault_decision",
]
