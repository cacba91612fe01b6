"""XEXT17 — chaos sweep: exact recovery under process-level faults.

XEXT15 proved the fleet scales out; this experiment proves it scales
out *on unreliable workers*.  The self-healing
:func:`~repro.fleet.run_fleet` loop drives the same sharded fleet while
:class:`~repro.faults.process.ProcessFaultPlan` injects the four
canonical process faults — crashes (soft exceptions and hard
``os._exit`` pool breaks), stragglers, poisoned reports and duplicate
deliveries — at swept rates, and every point answers three questions:

* **did it finish?** — completion wall-clock and per-point failure
  count (zero everywhere: ``max_attempts`` exceeds the plan's
  ``max_faulty_attempts``, so progress is guaranteed by construction);
* **what did recovery cost?** — wall-clock relative to the supervised
  fault-free baseline (checkpoint resume keeps the crash points cheap;
  hedging keeps the straggler points near the baseline instead of
  paying the full sleep per shard);
* **was it exact?** — the headline contract: the recovered
  ``FleetReport.identity_signature()`` must equal the *fault-free
  serial reference* bit-for-bit at every point, chaos notwithstanding.

Results land in ``.benchmarks/BENCH_xext17.json``.  The supervisor
counters are recorded as wall-time fields: a shard that outruns the
hedge deadline on a loaded host earns an extra attempt.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

from ..artifact import WALL_TIME, Result
from ..faults.process import ProcessFaultPlan
from ..fleet import FleetReport, FleetSpec, SupervisorPolicy, run_fleet

#: Seed for every xext17 fleet (PR sequence number, like XEXT15_SEED).
XEXT17_SEED = 17


@dataclass
class ChaosPoint:
    """One fault mix through the supervised fleet."""

    name: str
    crash_rate: float
    hard_crash: bool
    straggler_rate: float
    poison_rate: float
    duplicate_rate: float
    wall_s: float = field(metadata=WALL_TIME)
    #: wall_s / fault-free supervised wall_s — the price of recovery.
    recovery_overhead: float = field(metadata=WALL_TIME)
    #: Identity matches the fault-free serial reference bit-for-bit.
    identical: bool
    failures: int
    attempts_total: int = field(metadata=WALL_TIME)
    crashes_detected: int = field(metadata=WALL_TIME)
    stragglers_hedged: int = field(metadata=WALL_TIME)
    hedges_wasted: int = field(metadata=WALL_TIME)
    rooms_resumed: int = field(metadata=WALL_TIME)
    poisoned_reports: int = field(metadata=WALL_TIME)
    duplicates_dropped: int = field(metadata=WALL_TIME)
    retries_scheduled: int = field(metadata=WALL_TIME)
    pool_rebuilds: int = field(metadata=WALL_TIME)


@dataclass
class Xext17Result(Result):
    """The full chaos record (and the BENCH_xext17.json shape)."""

    num_rooms: int
    switches_per_room: int
    num_switches: int
    horizon: float
    num_shards: int
    workers: int
    cpu_count: int = field(metadata=WALL_TIME)
    #: Fault-free serial reference wall-clock (one shard, no spill).
    serial_wall_s: float = field(metadata=WALL_TIME)
    #: Fault-free process-pool wall-clock under the chaos policy and
    #: checkpoint spill — the overhead denominator.
    baseline_wall_s: float = field(metadata=WALL_TIME)
    #: The fault-free supervised run matched the serial reference.
    baseline_identical: bool
    points: list[ChaosPoint] = field(default_factory=list)

    derived = ("all_exact",)
    wall_derived = ("worst_overhead",)

    @property
    def all_exact(self) -> bool:
        """Every chaos point recovered to the exact reference result."""
        return self.baseline_identical and all(
            point.identical and point.failures == 0
            for point in self.points
        )

    @property
    def worst_overhead(self) -> float:
        return max((p.recovery_overhead for p in self.points), default=1.0)

    def rows(self):
        return [
            (f"XEXT17: chaos sweep over {self.num_rooms} rooms x "
             f"{self.switches_per_room} switches, {self.num_shards} "
             f"shards / {self.workers} workers "
             f"(host has {self.cpu_count} CPU core(s))", [
                 ("serial reference", f"{self.serial_wall_s:6.2f} s wall"),
                 ("supervised, no faults",
                  f"{self.baseline_wall_s:6.2f} s wall  "
                  f"identical {self.baseline_identical}"),
             ]),
            ("XEXT17: fault mix vs recovery", [
                (point.name,
                 f"{point.wall_s:6.2f} s  overhead "
                 f"{point.recovery_overhead:4.2f}x  "
                 f"attempts {point.attempts_total:2d}  "
                 f"crashes {point.crashes_detected}  "
                 f"hedged {point.stragglers_hedged}  "
                 f"resumed {point.rooms_resumed}  "
                 f"rebuilds {point.pool_rebuilds}  "
                 f"exact {point.identical}"
                 + (f"  FAILURES {point.failures}" if point.failures else ""))
                for point in self.points
            ]),
            ("XEXT17: verdict", [
                ("exact recovery",
                 f"all points bit-identical to fault-free serial reference: "
                 f"{self.all_exact}"),
                ("worst overhead", f"{self.worst_overhead:.2f}x baseline"),
            ]),
        ]


def chaos_experiment(smoke: bool = False,
                     seed: int = XEXT17_SEED) -> Xext17Result:
    """Sweep fault mixes through the supervised fleet and verify exact
    recovery at every point.

    ``smoke`` shrinks the fleet and the straggler sleeps so CI walks
    the whole chaos path — hard pool breaks, hedging, checkpoint
    resume, dedup — in a few seconds.
    """
    if smoke:
        spec = FleetSpec(num_rooms=4, switches_per_room=4,
                         seed=seed, horizon=0.5)
        num_shards, workers = 2, 2
        straggler_delay_s, hedge_after_s = 0.4, 0.15
    else:
        spec = FleetSpec(num_rooms=12, switches_per_room=8,
                         seed=seed, horizon=1.0)
        num_shards, workers = 4, 4
        straggler_delay_s, hedge_after_s = 1.0, 0.3

    serial = run_fleet(spec, num_shards=1, backend="serial")
    reference = serial.identity_signature()

    # Quarantine must stay out of reach in exactness runs: a
    # quarantined shard is a *counted loss*, and the contract here is
    # zero loss.  max_attempts > max_faulty_attempts guarantees a
    # clean attempt exists for every shard.
    policy = SupervisorPolicy(
        max_attempts=6,
        quarantine_threshold=10,
        hedge_after_s=hedge_after_s,
        shard_deadline_s=30.0,
    )

    def supervised(plan: ProcessFaultPlan | None) -> FleetReport:
        # A fresh spill directory per run, so no run resumes rooms
        # another run finished.
        with tempfile.TemporaryDirectory(prefix="repro-xext17-") as spill:
            return run_fleet(
                spec, num_shards=num_shards, backend="process",
                workers=workers, faults=plan, policy=policy,
                checkpoint_dir=spill, seed=seed,
            )

    baseline = supervised(None)
    baseline_wall = baseline.wall_s or 1e-9
    baseline_identical = baseline.identity_signature() == reference

    mixes = [
        ("crash20", ProcessFaultPlan(crash_rate=0.20)),
        ("crash50_hard", ProcessFaultPlan(crash_rate=0.50,
                                          hard_crash=True)),
        ("stragglers", ProcessFaultPlan(
            straggler_rate=0.50, straggler_delay_s=straggler_delay_s)),
        ("poison_dup", ProcessFaultPlan(poison_rate=0.30,
                                        duplicate_rate=0.30)),
        ("everything", ProcessFaultPlan(
            crash_rate=0.30, hard_crash=True, straggler_rate=0.30,
            straggler_delay_s=straggler_delay_s, poison_rate=0.20,
            duplicate_rate=0.20)),
    ]

    points: list[ChaosPoint] = []
    for name, plan in mixes:
        report = supervised(plan)
        stats = report.supervisor
        points.append(ChaosPoint(
            name=name,
            crash_rate=plan.crash_rate,
            hard_crash=plan.hard_crash,
            straggler_rate=plan.straggler_rate,
            poison_rate=plan.poison_rate,
            duplicate_rate=plan.duplicate_rate,
            wall_s=report.wall_s,
            recovery_overhead=report.wall_s / baseline_wall,
            identical=report.identity_signature() == reference,
            failures=len(report.failures),
            attempts_total=stats.attempts_total,
            crashes_detected=stats.crashes_detected,
            stragglers_hedged=stats.stragglers_hedged,
            hedges_wasted=stats.hedges_wasted,
            rooms_resumed=stats.rooms_resumed,
            poisoned_reports=stats.poisoned_reports,
            duplicates_dropped=stats.duplicates_dropped,
            retries_scheduled=stats.retries_scheduled,
            pool_rebuilds=stats.pool_rebuilds,
        ))

    return Xext17Result(
        num_rooms=spec.num_rooms,
        switches_per_room=spec.switches_per_room,
        num_switches=spec.num_switches,
        horizon=spec.horizon,
        num_shards=num_shards,
        workers=workers,
        cpu_count=os.cpu_count() or 1,
        serial_wall_s=serial.wall_s,
        baseline_wall_s=baseline.wall_s,
        baseline_identical=baseline_identical,
        points=points,
    )
