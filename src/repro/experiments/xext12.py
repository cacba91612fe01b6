"""XEXT12 — resilience under injected faults.

The paper only tests the happy path plus one noisy-song scenario
(§5, Fig 4b).  This experiment measures how the reliability layer holds
the system together when the plant actually fails, in three parts:

1. **ARQ loss sweep** — MP frames over the switch→Pi link at swept
   Bernoulli loss rates, fire-and-forget vs the
   :class:`~repro.core.arq.MpArqSender` ARQ mode (repetition + ACK +
   exponential backoff + deadline).  The headline: at 20 % frame loss
   the no-ARQ path delivers < 80 % while ARQ stays ≥ 99 %.
2. **Failover episode** — a chirping switch's speaker drops out
   mid-run; the :class:`~repro.core.health.ChannelHealthMonitor`
   declares it DEAD and the
   :class:`~repro.core.apps.failover.FailoverManager` moves monitoring
   to the in-band baseline within two chirp intervals of the first
   missed beat, then returns to the acoustic channel after the speaker
   recovers.
3. **Fault-rate sweep** — random speaker dropouts at swept duty cycles
   vs end-to-end detection accuracy, with and without the failover
   layer's in-band coverage filling the gaps.

All three are deterministic for a given seed (every fault schedule and
every loss draw comes from ``(seed, label)`` streams).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..artifact import Result
from ..audio import AcousticChannel, Position
from ..audio.devices import Speaker
from ..core import (
    ArqConfig,
    ChannelHealth,
    ChannelHealthMonitor,
    MpArqSender,
    MusicAgent,
    MusicProtocolMessage,
    PiBridge,
)
from ..core.apps import HeartbeatChirper
from ..core.apps.failover import FailoverEvent, FailoverManager, InbandFallback
from ..faults import FaultHarness
from ..net.sim import Simulator
from ..net.switch import Switch
from .rigs import build_testbed

#: Seed every xext12 stage derives its fault schedules from.
XEXT12_SEED = 7


# ----------------------------------------------------------------------
# Part 1: ARQ vs fire-and-forget under MP frame loss
# ----------------------------------------------------------------------

@dataclass
class ArqPoint:
    """One loss-rate measurement."""

    loss_rate: float
    frames: int
    no_arq_delivery: float    #: frames played / frames sent, bare path
    arq_delivery: float       #: distinct frames played, ARQ path
    arq_acked: float          #: frames acknowledged back to the sender
    retransmits: int
    expired: int
    mean_ack_latency_ms: float
    frames_lost_no_arq: int   #: injector tally, bare run
    frames_lost_arq: int      #: injector tally, ARQ run


def _mp_rig(loss_rate: float, seed: int,
            label: str) -> tuple[Simulator, PiBridge, FaultHarness]:
    """A minimal switch + Pi-bridge rig with a lossy Pi link."""
    sim = Simulator()
    channel = AcousticChannel()
    switch = Switch(sim, "s1")
    agent = MusicAgent(sim, channel, Speaker(Position(1.0, 0.0, 0.0)),
                       name="s1")
    bridge = PiBridge(sim, switch, agent)
    harness = FaultHarness(sim, seed=seed)
    if loss_rate:
        harness.mp_link(switch.ports[bridge.pi_port], loss_rate=loss_rate,
                        label=label)
    return sim, bridge, harness


def arq_loss_sweep(
    loss_rates: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4),
    frames: int = 150,
    frame_interval: float = 0.25,
    seed: int = XEXT12_SEED,
    config: ArqConfig | None = None,
) -> list[ArqPoint]:
    """Sweep MP-frame loss, fire-and-forget vs ARQ, same loss stream."""
    config = config or ArqConfig()
    message = MusicProtocolMessage(1000.0, 0.05, 70.0)
    results = []
    for loss_rate in loss_rates:
        label = f"mp_loss/{loss_rate}"
        # Bare path: every frame is sent once; delivery is what the Pi
        # actually played.
        sim, bridge, harness = _mp_rig(loss_rate, seed, label)
        for index in range(frames):
            sim.schedule_at(index * frame_interval, bridge.send_mp, message)
        sim.run(frames * frame_interval + config.deadline + 1.0)
        no_arq_delivery = bridge.pi.mp_played.total / frames
        lost_bare = harness.summary().get("mp_frames_lost", 0)

        # ARQ path: identical schedule and loss stream (same label), but
        # framed + acknowledged + retransmitted.
        sim, bridge, harness = _mp_rig(loss_rate, seed, label)
        sender = MpArqSender(bridge, config)
        for index in range(frames):
            sim.schedule_at(index * frame_interval, sender.send, message)
        sim.run(frames * frame_interval + config.deadline + 1.0)
        stats = sender.stats()
        results.append(ArqPoint(
            loss_rate=loss_rate,
            frames=frames,
            no_arq_delivery=no_arq_delivery,
            arq_delivery=len(bridge.pi.mp_seen_seqs) / frames,
            arq_acked=stats.delivery_rate,
            retransmits=stats.retransmits,
            expired=stats.expired,
            mean_ack_latency_ms=stats.mean_latency * 1000.0,
            frames_lost_no_arq=lost_bare,
            frames_lost_arq=harness.summary().get("mp_frames_lost", 0),
        ))
    return results


# ----------------------------------------------------------------------
# Part 2: speaker death -> in-band failover -> acoustic recovery
# ----------------------------------------------------------------------

@dataclass
class FailoverResult:
    """One deterministic dropout episode, end to end."""

    period: float
    fault_start: float
    fault_end: float
    first_missed_beat: float
    dead_declared_at: float | None
    failover_at: float | None
    failback_at: float | None
    #: failover_at - first_missed_beat (the acceptance metric).
    failover_latency: float | None
    inband_delivery_rate: float   #: heartbeat delivery while failed over
    inband_delivered: int
    beats_emitted: int
    final_state: ChannelHealth
    events: list[FailoverEvent] = field(default_factory=list)
    fault_summary: dict[str, int] = field(default_factory=dict)


def failover_experiment(
    period: float = 0.3,
    fault_start: float = 3.2,
    outage: float = 3.0,
    duration: float = 12.0,
    seed: int = XEXT12_SEED,
) -> FailoverResult:
    """One switch chirps; its speaker dies and later recovers.

    The chirper beats on the grid ``period/2 + n*period``; the dropout
    window opens just after a heard beat, so the failover latency is
    measured from the first beat the outage actually silences.
    """
    testbed = build_testbed("single")
    sim = testbed.sim
    allocation = testbed.plan.allocate("health/s1", 2)
    frequency = allocation.frequency_for(0)
    agent = testbed.agents["s1"]
    chirper = HeartbeatChirper(sim, agent, frequency, period)

    monitor = ChannelHealthMonitor(
        testbed.controller, {"s1": frequency}, period=period,
    )
    fallback = InbandFallback(testbed.topo.hosts["h1"],
                              testbed.topo.hosts["h2"], period=period / 2)
    manager = FailoverManager(testbed.controller, monitor,
                              {"s1": fallback})

    harness = FaultHarness(sim, seed=seed)
    air = harness.acoustic(testbed.channel)
    fault_end = fault_start + outage
    air.drop_speaker(agent.speaker.position, fault_start, fault_end)

    testbed.controller.start()
    sim.run(duration)

    # The first beat the outage silences: the first grid beat inside
    # the dropout window.
    beat0 = period / 2
    n = 0
    while beat0 + n * period < fault_start:
        n += 1
    first_missed = beat0 + n * period

    dead_at = next((t.time for t in monitor.transitions
                    if t.state is ChannelHealth.DEAD), None)
    failover_at = next((e.time for e in manager.events
                        if e.action == "to_inband"), None)
    failback_at = next((e.time for e in manager.events
                        if e.action == "to_acoustic"), None)
    inband = fallback.stats()
    return FailoverResult(
        period=period,
        fault_start=fault_start,
        fault_end=fault_end,
        first_missed_beat=first_missed,
        dead_declared_at=dead_at,
        failover_at=failover_at,
        failback_at=failback_at,
        failover_latency=(failover_at - first_missed
                          if failover_at is not None else None),
        inband_delivery_rate=inband.delivery_rate,
        inband_delivered=inband.delivered,
        beats_emitted=chirper.beats_emitted,
        final_state=monitor.state_of("s1"),
        events=list(manager.events),
        fault_summary=harness.summary(),
    )


# ----------------------------------------------------------------------
# Part 3: fault rate vs end-to-end detection accuracy
# ----------------------------------------------------------------------

@dataclass
class ResiliencePoint:
    """One fault-rate measurement."""

    fault_rate: float
    dropout_windows: int
    beats_emitted: int
    beats_heard: int
    detection_accuracy: float      #: acoustic beats heard / emitted
    failovers: int                 #: to_inband activations
    inband_delivered: int          #: heartbeats delivered while failed over
    covered_fraction: float        #: beats covered acoustically OR in-band
    fault_summary: dict[str, int] = field(default_factory=dict)


def resilience_sweep(
    fault_rates: tuple[float, ...] = (0.0, 0.15, 0.3, 0.5),
    duration: float = 24.0,
    period: float = 0.3,
    mean_outage: float = 1.2,
    seed: int = XEXT12_SEED,
) -> list[ResiliencePoint]:
    """Random speaker dropouts at swept duty cycles vs what the
    management plane still sees (acoustically, and after in-band
    fill-in)."""
    results = []
    for rate in fault_rates:
        testbed = build_testbed("single")
        sim = testbed.sim
        frequency = testbed.plan.allocate("health/s1", 2).frequency_for(0)
        agent = testbed.agents["s1"]
        chirper = HeartbeatChirper(sim, agent, frequency, period)
        heard: list[float] = []
        testbed.controller.watch([frequency],
                                 on_onset=lambda e: heard.append(e.time))
        monitor = ChannelHealthMonitor(
            testbed.controller, {"s1": frequency}, period=period,
        )
        fallback = InbandFallback(testbed.topo.hosts["h1"],
                                  testbed.topo.hosts["h2"],
                                  period=period / 2)
        manager = FailoverManager(testbed.controller, monitor,
                                  {"s1": fallback})
        harness = FaultHarness(sim, seed=seed)
        air = harness.acoustic(testbed.channel)
        windows = air.random_dropouts(
            agent.speaker.position, 1.0, duration - 1.0, rate,
            mean_outage=mean_outage, label=f"dropouts/{rate}",
        )
        testbed.controller.start()
        sim.run(duration)

        emitted = chirper.beats_emitted
        inband = fallback.stats()
        accuracy = len(heard) / emitted if emitted else 0.0
        covered = min(1.0, (len(heard) + inband.delivered) / emitted
                      if emitted else 0.0)
        results.append(ResiliencePoint(
            fault_rate=rate,
            dropout_windows=len(windows),
            beats_emitted=emitted,
            beats_heard=len(heard),
            detection_accuracy=accuracy,
            failovers=sum(1 for e in manager.events
                          if e.action == "to_inband"),
            inband_delivered=inband.delivered,
            covered_fraction=covered,
            fault_summary=harness.summary(),
        ))
    return results


# ----------------------------------------------------------------------
# Top-level driver (CLI / obs entry point)
# ----------------------------------------------------------------------

@dataclass
class Xext12Result(Result):
    """Everything the xext12 CLI run produces."""

    arq: list[ArqPoint]
    failover: FailoverResult
    resilience: list[ResiliencePoint]

    def rows(self):
        episode = self.failover
        latency = (f"{episode.failover_latency:.2f} s"
                   if episode.failover_latency is not None else "never")
        failback = (f"{episode.failback_at:.2f} s"
                    if episode.failback_at is not None else "never")
        return [
            ("XEXT12a: MP frame loss — ARQ vs fire-and-forget", [
                (f"loss {point.loss_rate:.0%}",
                 f"bare {point.no_arq_delivery:.1%}  "
                 f"arq {point.arq_delivery:.1%}  "
                 f"({point.retransmits} rtx, {point.expired} expired, "
                 f"ack p̄ {point.mean_ack_latency_ms:.1f} ms)")
                for point in self.arq
            ]),
            ("XEXT12b: speaker-death failover episode", [
                ("speaker outage", f"{episode.fault_start:.1f}–"
                 f"{episode.fault_end:.1f} s"),
                ("first missed beat", f"{episode.first_missed_beat:.2f} s"),
                ("failover latency", f"{latency} "
                 f"(budget {2 * episode.period:.2f} s)"),
                ("in-band coverage", f"{episode.inband_delivered} beats "
                 f"at {episode.inband_delivery_rate:.0%}"),
                ("failback to acoustic", failback),
                ("final health", episode.final_state.name),
            ]),
            ("XEXT12c: dropout duty cycle vs coverage", [
                (f"fault rate {point.fault_rate:.0%}",
                 f"acoustic {point.detection_accuracy:.1%}  "
                 f"covered {point.covered_fraction:.1%}  "
                 f"({point.failovers} failovers, "
                 f"{point.inband_delivered} in-band beats)")
                for point in self.resilience
            ]),
        ]


def resilience_experiment(smoke: bool = False,
                          seed: int = XEXT12_SEED) -> Xext12Result:
    """The full XEXT12 stack; ``smoke`` shrinks every sweep for CI."""
    if smoke:
        arq = arq_loss_sweep(loss_rates=(0.0, 0.2), frames=60, seed=seed)
        failover = failover_experiment(seed=seed, duration=10.0)
        resilience = resilience_sweep(fault_rates=(0.0, 0.3),
                                      duration=12.0, seed=seed)
    else:
        arq = arq_loss_sweep(seed=seed)
        failover = failover_experiment(seed=seed)
        resilience = resilience_sweep(seed=seed)
    return Xext12Result(arq=arq, failover=failover, resilience=resilience)
