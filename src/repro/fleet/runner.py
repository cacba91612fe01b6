"""Fleet results: shard and fleet reports, merged observability.

Every execution — serial or process backend, any shard count, any
recovered fault schedule — ends in the same :class:`FleetReport`,
assembled by :func:`build_fleet_report` from the :class:`ShardReport`
of every shard the loop in :mod:`repro.fleet.supervisor` merged.
Per-room results are merged in global room order, with
``MetricsRegistry.merge`` rolling every room's
simulation-deterministic metrics into one fleet-wide registry.
``FleetReport.identity_signature()`` is the equality contract the
tests pin: serial and process backends — at any shard count — must
match it exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..obs import MetricsRegistry
from .room import RoomReport
from .specs import FleetSpec

if TYPE_CHECKING:
    from .supervisor import ShardFailure, SupervisorStats

#: Gauges roll up with the peak policy fleet-wide (the one gauge the
#: rooms emit is a peak; last-write across isolated rooms would be
#: meaningless).
FLEET_GAUGE_POLICY = "max"


@dataclass
class ShardReport:
    """One shard's rooms, rolled up for the trip home.

    Compact by construction: per-room counts plus one merged registry —
    never signals, channels or simulators — so a 1000-room fleet's
    results fit in a few hundred kilobytes of pickled reports.
    """

    shard_id: int
    rooms: list[RoomReport]
    metrics: MetricsRegistry
    wall_s: float = 0.0
    #: Rooms loaded from checkpoint spill instead of simulated
    #: (execution detail, excluded from identity).
    rooms_resumed: int = 0
    #: Which execution attempt produced this report (0 = first try).
    attempt: int = 0

    @property
    def emissions(self) -> int:
        return sum(room.emissions for room in self.rooms)

    @property
    def onsets(self) -> int:
        return sum(room.onsets for room in self.rooms)

    @property
    def delivered(self) -> int:
        return sum(room.delivered for room in self.rooms)

    @property
    def delivery_ratio(self) -> float:
        emissions = self.emissions
        return self.delivered / emissions if emissions else 0.0


@dataclass
class FleetReport:
    """The merged view of one fleet execution."""

    spec: FleetSpec
    backend: str
    num_shards: int
    workers: int
    shards: list[ShardReport]
    failures: list[ShardFailure]
    #: Fleet-wide rollup of every room's registry, in room order.
    metrics: MetricsRegistry
    wall_s: float = 0.0
    cpu_count: int = field(default_factory=lambda: os.cpu_count() or 1)
    #: The run's recovery accounting (``None`` only for a report
    #: assembled outside ``run_fleet``).  Execution detail — excluded
    #: from the identity signature like every wall-clock field.
    supervisor: SupervisorStats | None = None

    @property
    def rooms(self) -> list[RoomReport]:
        """Every room report, in global room order."""
        ordered = [room for shard in self.shards for room in shard.rooms]
        ordered.sort(key=lambda room: room.room_id)
        return ordered

    @property
    def emissions(self) -> int:
        return sum(shard.emissions for shard in self.shards)

    @property
    def onsets(self) -> int:
        return sum(shard.onsets for shard in self.shards)

    @property
    def delivered(self) -> int:
        return sum(shard.delivered for shard in self.shards)

    @property
    def delivery_ratio(self) -> float:
        emissions = self.emissions
        return self.delivered / emissions if emissions else 0.0

    @property
    def simulated_seconds(self) -> float:
        """Total simulated time across rooms (rooms run concurrently
        in the fiction; the simulator work is per-room horizon)."""
        return self.spec.horizon * sum(
            len(shard.rooms) for shard in self.shards
        )

    @property
    def real_time_factor(self) -> float:
        """Simulated seconds delivered per wall-clock second."""
        return self.simulated_seconds / self.wall_s if self.wall_s else 0.0

    def identity_signature(self) -> dict:
        """Everything deterministic: per-room signatures (in room
        order) plus the merged metrics snapshot.  Wall-clock fields and
        shard grouping are excluded — they are execution detail, not
        result."""
        return {
            "rooms": [room.identity_signature() for room in self.rooms],
            "metrics": self.metrics.snapshot(),
        }


def merge_fleet_metrics(reports: list[ShardReport]) -> MetricsRegistry:
    """Roll shard results up into one fleet-wide registry.

    Merges from the room *leaves* in global room order, not from the
    per-shard rollups: float summation is non-associative, so a
    hierarchical rollup would make the merged histogram mean depend
    on the shard count in the last ulp — breaking the bit-identity
    contract between shard counts.
    """
    metrics = MetricsRegistry()
    ordered = sorted(
        (room for shard in reports for room in shard.rooms),
        key=lambda room: room.room_id,
    )
    for room in ordered:
        metrics.merge(room.metrics, gauge_policy=FLEET_GAUGE_POLICY)
    return metrics


def build_fleet_report(
    spec: FleetSpec,
    backend: str,
    num_shards: int,
    workers: int,
    shards: list[ShardReport],
    failures: list[ShardFailure],
    wall_s: float,
    supervisor: SupervisorStats | None = None,
) -> FleetReport:
    """Assemble the merged report (shards and failures are re-sorted
    by shard id so completion order can never leak into the
    result)."""
    shards = sorted(shards, key=lambda report: report.shard_id)
    failures = sorted(failures, key=lambda failure: failure.shard_id)
    return FleetReport(
        spec=spec,
        backend=backend,
        num_shards=num_shards,
        workers=workers,
        shards=shards,
        failures=failures,
        metrics=merge_fleet_metrics(shards),
        wall_s=wall_s,
        supervisor=supervisor,
    )
