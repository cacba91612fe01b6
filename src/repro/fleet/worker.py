"""The shard executor: faultable, checkpoint-resuming shard execution.

:func:`run_shard_job` is the one function that runs a shard — what
:func:`~repro.fleet.supervisor.run_fleet` calls in-process on the
serial backend and ships to pool workers on the process backend.  It
simulates the shard's rooms in order, merges their registries, and
applies two things the job carries:

* the **process fault model** — before and during the shard it honors
  the deterministic :func:`~repro.faults.process.shard_fault_decision`
  for its ``(shard, attempt)``: sleep if straggling, die mid-shard if
  crashing, hand back poison if poisoned;
* the **checkpoint spill** — each finished room is saved to the
  :class:`~repro.fleet.checkpoint.CheckpointStore` immediately, and a
  re-execution loads whatever its predecessors finished and simulates
  only the rest.

With no fault plan and no checkpoint directory it is the plain
computation: same rooms, same merged registry, same report.

Everything here must stay module-level and picklable — jobs cross the
process boundary by value, the function by reference.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

from ..faults.process import (
    PoisonedShardReport,
    ProcessFaultPlan,
    crash_now,
    shard_fault_decision,
)
from ..obs import MetricsRegistry
from .checkpoint import CheckpointStore
from .room import run_room
from .runner import FLEET_GAUGE_POLICY, ShardReport
from .specs import ShardSpec


@dataclass(frozen=True)
class ShardJob:
    """One attempt at one shard, fully described by values."""

    shard: ShardSpec
    attempt: int = 0
    seed: int = 0
    faults: ProcessFaultPlan | None = None
    #: Where finished rooms are spilled / resumed from (``None``
    #: disables checkpointing).
    checkpoint_dir: str | None = None
    #: True only when this job runs in a disposable worker process —
    #: a hard (``os._exit``) crash fault in the driver's own
    #: interpreter would kill the whole run, so the serial backend
    #: downgrades it to the exception-shaped crash.
    hard_crash_ok: bool = False
    #: Label only: this execution is a hedge shadowing a straggler.
    hedge: bool = False


def run_shard_job(job: ShardJob) -> ShardReport | PoisonedShardReport:
    """Execute one (possibly fault-fated, possibly resumed) attempt.

    Rooms run in shard order and their registries merge in that order;
    resumed rooms contribute their checkpointed reports in place of
    fresh simulation, which is the same values by determinism.
    """
    wall_start = _time.perf_counter()
    decision = shard_fault_decision(
        job.faults, job.seed, job.shard.shard_id, job.attempt
    )
    if decision.straggle and decision.straggler_delay_s > 0:
        _time.sleep(decision.straggler_delay_s)
    store = (CheckpointStore(job.checkpoint_dir)
             if job.checkpoint_dir else None)
    resumed = (store.load_rooms(job.shard.shard_id) if store is not None
               else {})
    crash_after = decision.crash_after_rooms(len(job.shard.rooms))
    rooms = []
    rooms_resumed = 0
    for index, room_spec in enumerate(job.shard.rooms):
        if crash_after is not None and index >= crash_after:
            crash_now(decision.hard and job.hard_crash_ok)
        checkpointed = resumed.get(room_spec.room_id)
        if checkpointed is not None:
            rooms.append(checkpointed)
            rooms_resumed += 1
            continue
        room = run_room(room_spec)
        if store is not None:
            store.save_room(job.shard.shard_id, room)
        rooms.append(room)
    if decision.poison:
        return PoisonedShardReport(shard_id=job.shard.shard_id)
    metrics = MetricsRegistry()
    for room in rooms:
        metrics.merge(room.metrics, gauge_policy=FLEET_GAUGE_POLICY)
    return ShardReport(
        shard_id=job.shard.shard_id,
        rooms=rooms,
        metrics=metrics,
        wall_s=_time.perf_counter() - wall_start,
        rooms_resumed=rooms_resumed,
        attempt=job.attempt,
    )


__all__ = ["ShardJob", "run_shard_job"]
