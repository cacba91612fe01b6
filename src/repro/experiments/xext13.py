"""XEXT13 — spectrum agility under narrowband interference.

The paper's plan is static; §5/Fig 4b already shows a song in the room
degrades detection, and PR 4's answer — in-band failover — abandons the
acoustic channel entirely.  A loud narrowband interferer is worse than
it looks: beyond drowning its own band, it desensitizes the receiver
across the detector's sidelobe-rejection radius (±120 Hz), so symbols
whose bands carry *no* interference energy stop detecting too.  This
experiment jams a fraction of one app's allocation with a persistent
narrowband interferer and compares three policies:

* **static** — the paper's plan, ridden down: every symbol inside the
  interfered band *or its shadow* is lost for the rest of the run;
* **failover** — PR 4's health + in-band fallback: the monitor sees
  the missed beats and correctly bails emitters to the data network —
  the right diagnosis with a surrendering remedy, since acoustic
  delivery stays down (and in the data-plane-failure scenario the
  channel exists for, there is no network to bail to);
* **agility** — the :mod:`repro.core.spectrum` loop: the sentinel
  classifies the hot bands, the replanner relocates every slot in the
  interference shadow, and the two-phase PLAN_PREPARE/PLAN_COMMIT
  migration rides the MP ARQ envelope to the emitter's Pi, with
  make-before-break listening on both plans during the handover.

Headline: with ≥30 % of the allocation covered, agility sustains
≥95 % symbol delivery while static drops below 80 %, migration commits
within two beat intervals of classification, and the epoch tags show
zero events lost or misattributed across the commit boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..artifact import Result
from ..core import (
    ChannelHealthMonitor,
    InterferenceSentinel,
    MpArqSender,
    PiBridge,
    PiPlanParticipant,
    SpectrumAgilityManager,
)
from ..core.agent import MusicAgent
from ..core.apps.failover import FailoverManager, InbandFallback
from ..core.controller import MDNController
from ..core.frequency_plan import Allocation
from ..faults import FaultHarness
from .rigs import build_testbed

#: Seed every xext13 interferer schedule derives from.
XEXT13_SEED = 13


# ----------------------------------------------------------------------
# The workload: a cyclic symbol beater + a symbol-resolving listener
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BeatRecord:
    """One emitted telemetry beat."""

    time: float
    symbol: int
    frequency: float
    epoch: int      #: the emitter's plan epoch when the beat left


@dataclass(frozen=True)
class OnsetRecord:
    """One heard telemetry symbol."""

    time: float
    symbol: int
    frequency: float     #: plan entry the onset was attributed to
    epoch: int           #: epoch tag carried by the detection


class SymbolBeater:
    """Cyclic telemetry emitter: beat ``n`` plays symbol ``n % K``.

    Walks its allocation round-robin, one tone per ``period``, so every
    symbol beats once per ``K * period`` — a stand-in for any
    tone-mapped app's steady-state traffic.  :meth:`rebind` adopts a
    migrated allocation (wired as a PLAN_COMMIT callback) and bumps the
    emitter-side epoch stamped onto subsequent beats.
    """

    def __init__(self, sim, agent: MusicAgent, allocation: Allocation,
                 period: float = 0.3, tone_duration: float = 0.08,
                 tone_level_db: float = 70.0, start: float | None = None):
        self.sim = sim
        self.agent = agent
        self.allocation = allocation
        self.period = period
        self.tone_duration = tone_duration
        self.tone_level_db = tone_level_db
        self.epoch = 0
        self.emissions: list[BeatRecord] = []
        self._n = 0
        first = period / 2 if start is None else start
        sim.schedule_at(first, self._start)

    def _start(self) -> None:
        self._beat()
        self._timer = self.sim.every(self.period, self._beat)

    def rebind(self, allocation: Allocation) -> None:
        self.allocation = allocation
        self.epoch += 1

    def _beat(self) -> None:
        symbol = self._n % len(self.allocation)
        frequency = self.allocation.frequency_for(symbol)
        self._n += 1
        if self.agent.play(frequency, self.tone_duration,
                           self.tone_level_db):
            self.emissions.append(BeatRecord(
                self.sim.now, symbol, frequency, self.epoch
            ))


class SymbolListener:
    """Controller-side half: one onset subscription per symbol.

    Each symbol's callback closes over its index, so when a migration
    moves the subscription to a new frequency (``migrate_watch``) the
    symbol binding travels with it — re-attribution across the commit
    boundary is exactly what the onset stream shows.
    """

    def __init__(self, controller: MDNController,
                 allocation: Allocation) -> None:
        self.onsets: list[OnsetRecord] = []
        for index, frequency in enumerate(allocation.frequencies):
            controller.watch(
                [frequency],
                on_onset=lambda event, symbol=index: self.onsets.append(
                    OnsetRecord(event.time, symbol, event.frequency,
                                event.epoch)
                ),
            )

    def by_symbol(self) -> dict[int, list[OnsetRecord]]:
        out: dict[int, list[OnsetRecord]] = {}
        for onset in self.onsets:
            out.setdefault(onset.symbol, []).append(onset)
        return out


def _delivery(emissions: list[BeatRecord], onsets: list[OnsetRecord],
              after: float, listen_interval: float = 0.1,
              slack: float = 0.35) -> tuple[float, int, int]:
    """Fraction of beats at/after ``after`` heard as the right symbol.

    A beat at ``t`` matches an onset of the same symbol whose window
    started in ``[t - listen_interval - ε, t + slack]``; symbols repeat
    every ``K · period`` ≫ slack, so matches are unambiguous.
    """
    by_symbol: dict[int, list[float]] = {}
    for onset in onsets:
        by_symbol.setdefault(onset.symbol, []).append(onset.time)
    matched = 0
    total = 0
    for beat in emissions:
        if beat.time < after:
            continue
        total += 1
        times = by_symbol.get(beat.symbol, ())
        lo = beat.time - listen_interval - 1e-6
        hi = beat.time + slack
        if any(lo <= time <= hi for time in times):
            matched += 1
    return (matched / total if total else 0.0), matched, total


# ----------------------------------------------------------------------
# One policy run
# ----------------------------------------------------------------------

@dataclass
class PolicyResult:
    """One policy under one interferer configuration."""

    policy: str
    symbols: int
    covered_slots: int
    covered_fraction: float
    interferer_start: float
    duration: float
    beats_emitted: int
    beats_matched: int           #: post-interferer beats heard correctly
    beats_judged: int            #: post-interferer beats emitted
    delivery: float              #: matched / judged
    clean_delivery: float        #: pre-interferer delivery (sanity)
    migrations_committed: int
    migrations_aborted: int
    migration_latency: float | None   #: classification -> commit, seconds
    classified_at: float | None
    committed_at: float | None
    plan_epoch: int
    health_transitions: int      #: failover policy: verdict changes seen
    failovers: int               #: failover policy: to_inband activations
    onsets: list[OnsetRecord] = field(default_factory=list)
    emissions: list[BeatRecord] = field(default_factory=list)


def spectrum_agility_run(
    policy: str,
    covered_slots: int = 2,
    symbols: int = 6,
    period: float = 0.3,
    duration: float = 30.0,
    interferer_start: float = 6.0,
    interferer_level_db: float = 85.0,
    seed: int = XEXT13_SEED,
) -> PolicyResult:
    """One end-to-end run of one policy under one interferer.

    The beater cycles ``symbols`` tones on the plan's lowest slots; the
    interferer covers slots ``1 .. covered_slots`` (a contiguous band
    inside the allocation) from ``interferer_start`` to the end of the
    run.  ``policy`` is ``"static"``, ``"failover"`` or ``"agility"``.
    """
    if policy not in ("static", "failover", "agility"):
        raise ValueError(f"unknown policy {policy!r}")
    if covered_slots >= symbols:
        raise ValueError("interferer must leave at least one clean symbol")
    testbed = build_testbed("single")
    sim = testbed.sim
    plan = testbed.plan
    controller = testbed.controller
    allocation = plan.allocate("telemetry/s1", symbols)
    agent = testbed.agents["s1"]
    beater = SymbolBeater(sim, agent, allocation, period=period)
    listener = SymbolListener(controller, allocation)

    monitor = None
    failover_manager = None
    agility = None
    if policy == "failover":
        emitters = {
            f"s1/{index}": allocation.frequency_for(index)
            for index in range(symbols)
        }
        monitor = ChannelHealthMonitor(
            controller, emitters, period=symbols * period,
        )
        fallbacks = {
            name: InbandFallback(testbed.topo.hosts["h1"],
                                 testbed.topo.hosts["h2"],
                                 period=period)
            for name in emitters
        }
        failover_manager = FailoverManager(controller, monitor, fallbacks)
    elif policy == "agility":
        # 8 windows of classification memory: the interferer is
        # continuous, so 0.8 s suffices while a 4%-duty symbol chirp
        # still cannot trip the 92% on-fraction.
        sentinel = InterferenceSentinel(plan, controller,
                                        persistence_windows=8)
        agility = SpectrumAgilityManager(
            controller, plan, sentinel,
            handover=2 * controller.listen_interval,
            prepare_timeout=0.5,
        )
        bridge = PiBridge(sim, testbed.topo.switches["s1"], agent)
        sender = MpArqSender(bridge)
        participant = PiPlanParticipant(
            sender, "telemetry/s1", allocation,
            on_commit=[beater.rebind],
        )
        agility.add_participant("telemetry/s1", participant)

    if covered_slots:
        harness = FaultHarness(sim, seed=seed)
        air = harness.acoustic(testbed.channel)
        # Strictly inside the covered slots' bands, clear of the
        # adjacent slots' edges.
        low = plan.slot_frequency(1) - plan.guard_hz / 2 + 5.0
        high = plan.slot_frequency(covered_slots) + plan.guard_hz / 2 - 5.0
        air.narrowband_interferer(
            low, high, interferer_start, duration,
            level_db=interferer_level_db,
            label=f"xext13/{policy}/{covered_slots}",
        )

    controller.start()
    sim.run(duration)

    delivery, matched, judged = _delivery(
        beater.emissions, listener.onsets, after=interferer_start,
        listen_interval=controller.listen_interval,
    )
    clean_delivery, _m, _t = _delivery(
        [b for b in beater.emissions if b.time < interferer_start - 0.5],
        listener.onsets, after=0.0,
        listen_interval=controller.listen_interval,
    )
    committed = [r for r in (agility.records if agility else [])
                 if r.status == "committed"]
    first = committed[0] if committed else None
    return PolicyResult(
        policy=policy,
        symbols=symbols,
        covered_slots=covered_slots,
        covered_fraction=covered_slots / symbols,
        interferer_start=interferer_start,
        duration=duration,
        beats_emitted=len(beater.emissions),
        beats_matched=matched,
        beats_judged=judged,
        delivery=delivery,
        clean_delivery=clean_delivery,
        migrations_committed=(agility.migrations_committed if agility else 0),
        migrations_aborted=(agility.migrations_aborted if agility else 0),
        migration_latency=(first.latency if first else None),
        classified_at=(first.classified_at if first else None),
        committed_at=(first.resolved_at if first else None),
        plan_epoch=plan.epoch,
        health_transitions=(len(monitor.transitions) if monitor else 0),
        failovers=(sum(1 for e in failover_manager.events
                       if e.action == "to_inband")
                   if failover_manager else 0),
        onsets=listener.onsets,
        emissions=beater.emissions,
    )


# ----------------------------------------------------------------------
# Bandwidth sweep + top-level driver
# ----------------------------------------------------------------------

@dataclass
class SweepPoint:
    """Static vs agility delivery at one interference bandwidth."""

    covered_slots: int
    covered_fraction: float
    static_delivery: float
    agility_delivery: float
    migrations: int


def bandwidth_sweep(
    covered: tuple[int, ...] = (0, 1, 2, 3),
    symbols: int = 6,
    duration: float = 18.0,
    interferer_start: float = 4.5,
    seed: int = XEXT13_SEED,
) -> list[SweepPoint]:
    """Interference bandwidth vs delivery, static vs agility."""
    points = []
    for slots in covered:
        static = spectrum_agility_run(
            "static", covered_slots=slots, symbols=symbols,
            duration=duration, interferer_start=interferer_start, seed=seed,
        )
        agility = spectrum_agility_run(
            "agility", covered_slots=slots, symbols=symbols,
            duration=duration, interferer_start=interferer_start, seed=seed,
        )
        points.append(SweepPoint(
            covered_slots=slots,
            covered_fraction=slots / symbols,
            static_delivery=static.delivery,
            agility_delivery=agility.delivery,
            migrations=agility.migrations_committed,
        ))
    return points


def _policy_row(point: PolicyResult) -> tuple[str, str]:
    extra = ""
    if point.policy == "agility":
        latency = (f"{point.migration_latency:.2f} s"
                   if point.migration_latency is not None else "never")
        extra = (f"  ({point.migrations_committed} migrations, "
                 f"epoch {point.plan_epoch}, latency {latency})")
    elif point.policy == "failover":
        extra = (f"  ({point.failovers} failovers, "
                 f"{point.health_transitions} health transitions)")
    return (point.policy,
            f"clean {point.clean_delivery:.1%}  "
            f"jammed {point.delivery:.1%}{extra}")


@dataclass
class Xext13Result(Result):
    """Everything the xext13 CLI run produces."""

    static: PolicyResult
    failover: PolicyResult
    agility: PolicyResult
    sweep: list[SweepPoint]

    def rows(self):
        headline = self.agility
        return [
            (f"XEXT13a: {headline.covered_fraction:.0%} of the allocation "
             f"jammed from t = {headline.interferer_start:.1f} s", [
                 _policy_row(self.static),
                 _policy_row(self.failover),
                 _policy_row(self.agility),
             ]),
            ("XEXT13b: interference bandwidth vs delivery", [
                (f"covered {point.covered_fraction:.0%}",
                 f"static {point.static_delivery:.1%}  "
                 f"agility {point.agility_delivery:.1%}  "
                 f"({point.migrations} migrations)")
                for point in self.sweep
            ]),
        ]


def spectrum_agility_experiment(smoke: bool = False,
                                seed: int = XEXT13_SEED) -> Xext13Result:
    """The full XEXT13 stack; ``smoke`` shrinks the runs for CI."""
    if smoke:
        kwargs = dict(duration=16.0, interferer_start=3.5, seed=seed)
        sweep = bandwidth_sweep(covered=(0, 2), duration=12.0,
                                interferer_start=2.5, seed=seed)
    else:
        kwargs = dict(duration=30.0, interferer_start=6.0, seed=seed)
        sweep = bandwidth_sweep(seed=seed)
    return Xext13Result(
        static=spectrum_agility_run("static", **kwargs),
        failover=spectrum_agility_run("failover", **kwargs),
        agility=spectrum_agility_run("agility", **kwargs),
        sweep=sweep,
    )
