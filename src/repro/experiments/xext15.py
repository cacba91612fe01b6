"""XEXT15 — fleet scaling curve: sharded multi-room simulation.

The paper's testbed is one rack in one room; ROADMAP item 1 asks what
the reproduction does when the deployment is a *datacenter* — here, a
1000-switch fleet (50 rooms x 20 switches) chirping ~10k emissions per
second of simulated time.  Rooms are acoustically isolated, so the
fleet is embarrassingly parallel: :func:`repro.fleet.run_fleet` cuts it
into contiguous shards and runs them either serially (the reference)
or on a process pool through the PR 6 infra guardrails.

The experiment sweeps shard count against wall-clock and reports, for
every point:

* **speedup** over the serial reference (honest: on a single-core
  runner the pool pays fork/pickle overhead and the curve is flat or
  worse, which is why ``cpu_count`` is part of the record);
* **real-time factor** — simulated seconds delivered per wall second
  (50 rooms x 1 s horizon = 50 simulated seconds per run);
* **identity** — the merged report must match the serial reference
  bit-for-bit at every shard count and backend.

Results land in ``.benchmarks/BENCH_xext15.json``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..artifact import WALL_TIME, Result
from ..fleet import FleetReport, FleetSpec, run_fleet

#: Seed for every xext15 fleet (PR sequence number, like XEXT14_SEED).
XEXT15_SEED = 15


@dataclass
class FleetScalePoint:
    """One point on the shard-count-vs-wall-clock curve."""

    num_shards: int
    backend: str
    workers: int
    wall_s: float = field(metadata=WALL_TIME)
    #: serial_wall_s / wall_s — > 1 means the pool actually helped.
    speedup: float = field(metadata=WALL_TIME)
    #: Simulated seconds per wall second at this point.
    real_time_factor: float = field(metadata=WALL_TIME)
    #: Merged report identical to the serial reference, bit-for-bit.
    identical: bool
    failures: int


@dataclass
class Xext15Result(Result):
    """The full fleet-scaling record (and the BENCH_xext15.json shape)."""

    num_rooms: int
    switches_per_room: int
    num_switches: int
    horizon: float
    #: Fleet-wide chirps per simulated second while all switches emit.
    nominal_emissions_per_second: float
    #: Honesty anchor: speedup can only follow the cores available.
    cpu_count: int = field(metadata=WALL_TIME)
    emissions: int
    onsets: int
    delivered: int
    spurious_onsets: int
    delivery_ratio: float
    serial_wall_s: float = field(metadata=WALL_TIME)
    #: Two independent serial runs (at different shard counts) agreed.
    determinism_ok: bool
    points: list[FleetScalePoint] = field(default_factory=list)

    wall_derived = ("best_speedup",)

    @property
    def best_speedup(self) -> float:
        return max((p.speedup for p in self.points), default=1.0)

    def rows(self):
        return [
            (f"XEXT15: fleet of {self.num_rooms} rooms x "
             f"{self.switches_per_room} switches = {self.num_switches} "
             f"switches, ~{self.nominal_emissions_per_second:.0f} "
             f"emissions/s over {self.horizon:.1f} s "
             f"(host has {self.cpu_count} CPU core(s))", [
                 ("delivery",
                  f"{self.delivered}/{self.emissions} chirps "
                  f"({self.delivery_ratio:.1%}), "
                  f"{self.spurious_onsets} spurious onsets"),
                 ("determinism",
                  f"two serial runs identical: {self.determinism_ok}"),
             ]),
            ("XEXT15: shard count vs wall clock", [
                (f"{point.backend} x{point.num_shards}",
                 f"{point.wall_s:6.2f} s  speedup {point.speedup:4.2f}x  "
                 f"rtf {point.real_time_factor:6.1f} sim-s/s  "
                 f"identical {point.identical}"
                 + (f"  FAILURES {point.failures}" if point.failures else ""))
                for point in self.points
            ]),
        ]


def fleet_experiment(
    smoke: bool = False,
    seed: int = XEXT15_SEED,
    shard_counts: tuple[int, ...] | None = None,
) -> Xext15Result:
    """Run the fleet at 1..N shards and measure the scaling curve.

    ``smoke`` shrinks the fleet (6 rooms x 8 switches, 0.5 s horizon,
    shards 1 and 2) so CI exercises the whole parallel path — fork,
    pickle, merge, identity check — in a couple of seconds.
    """
    if smoke:
        spec = FleetSpec(num_rooms=6, switches_per_room=8,
                         seed=seed, horizon=0.5)
        shard_counts = shard_counts or (1, 2)
    else:
        spec = FleetSpec(num_rooms=50, switches_per_room=20,
                         seed=seed, horizon=1.0)
        shard_counts = shard_counts or (1, 2, 4, 8)

    # Serial reference, twice at different shard counts: one wall-clock
    # baseline, one determinism + shard-invariance witness.
    serial = run_fleet(spec, num_shards=1, backend="serial")
    witness = run_fleet(spec, num_shards=min(2, spec.num_rooms),
                        backend="serial")
    reference = serial.identity_signature()
    determinism_ok = reference == witness.identity_signature()

    def _point(report: FleetReport) -> FleetScalePoint:
        return FleetScalePoint(
            num_shards=report.num_shards,
            backend=report.backend,
            workers=report.workers,
            wall_s=report.wall_s,
            speedup=(serial.wall_s / report.wall_s
                     if report.wall_s else 0.0),
            real_time_factor=report.real_time_factor,
            identical=report.identity_signature() == reference,
            failures=len(report.failures),
        )

    points = [_point(serial)]
    for num_shards in shard_counts:
        if num_shards > spec.num_rooms:
            continue
        points.append(_point(run_fleet(
            spec, num_shards=num_shards, backend="process",
        )))

    return Xext15Result(
        num_rooms=spec.num_rooms,
        switches_per_room=spec.switches_per_room,
        num_switches=spec.num_switches,
        horizon=spec.horizon,
        nominal_emissions_per_second=spec.nominal_emissions_per_second,
        cpu_count=os.cpu_count() or 1,
        emissions=serial.emissions,
        onsets=serial.onsets,
        delivered=serial.delivered,
        spurious_onsets=sum(room.spurious_onsets for room in serial.rooms),
        delivery_ratio=serial.delivery_ratio,
        serial_wall_s=serial.wall_s,
        determinism_ok=determinism_ok,
        points=points,
    )
