"""``repro.faults`` — deterministic fault injection for the whole rig.

The paper evaluates the happy path plus one noisy-song scenario; a
production acoustic management plane must survive dead speakers,
saturated microphones, transient bursts, skewed device clocks, lossy
Music-Protocol links and crashing Pis.  This package injects exactly
those failures, **deterministically**:

* every injector draws from a ``(seed, label)``-derived generator, so a
  run is reproducible bit-for-bit from one seed;
* fault activations are **sim-time scheduled** — state flips ride the
  same event heap as the experiment, never wall clock;
* every injected fault is counted through :mod:`repro.obs`
  (``faults.*`` counters), so an instrumented run shows exactly what
  was thrown at the system;
* injectors plug into the existing components via first-class hook
  points (``AcousticChannel.set_fault_model``,
  ``Microphone.fault_model``, ``LinkDirection.fault_model``,
  ``RaspberryPi.crash``) — experiment code keeps building the same
  rigs and *adds* faults, it is never rewritten around them.

Fault taxonomy
--------------

================  ==============================  =======================
fault             injector                        plugs into
================  ==============================  =======================
speaker dropout   :class:`AcousticFaults`         channel render path
speaker degrade   :class:`AcousticFaults`         channel render path
clock skew        :class:`AcousticFaults`         channel emission path
noise burst       :class:`AcousticFaults`         channel noise beds
mic failure       :class:`MicrophoneFaults`       microphone capture
mic clipping      :class:`MicrophoneFaults`       microphone capture
MP frame loss     :class:`MpLinkFaults`           switch→Pi link delivery
MP frame corrupt  :class:`MpLinkFaults`           switch→Pi link delivery
Pi crash/restart  :class:`PiFaults`               RaspberryPi host
worker crash      :class:`ProcessFaultPlan`       fleet worker processes
worker straggler  :class:`ProcessFaultPlan`       fleet worker processes
poisoned report   :class:`ProcessFaultPlan`       fleet result path
duplicate result  :class:`ProcessFaultPlan`       fleet result path
================  ==============================  =======================

The last four are *process-level* faults (see :mod:`repro.faults.
process`): they attack the execution substrate the fleet runs on
rather than the simulated acoustics, and the fleet's one execution
loop, :func:`~repro.fleet.run_fleet`, is the recovery layer built to
absorb them.
"""

from __future__ import annotations

from .audio import AcousticFaults, MicrophoneFaults
from .harness import FaultHarness, seeded_rng
from .net import MpLinkFaults, PiFaults
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
    "MicrophoneFaults",
    "MpLinkFaults",
    "PiFaults",
    "PoisonedShardReport",
    "ProcessFaultPlan",
    "ShardFaultDecision",
    "SimulatedWorkerCrash",
    "seeded_rng",
    "shard_fault_decision",
]
