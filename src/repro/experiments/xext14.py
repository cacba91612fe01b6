"""XEXT14 — overload and wedged links: the ``repro.infra`` hardening.

PR 4's reliability layer answered *lossy* links; this experiment
answers *hostile load and wedged endpoints*, the two failure shapes
ROADMAP item 3 calls out, in two episodes:

1. **Wedged link** — a Pi crashes mid-run.  Deadline-only ARQ learns
   nothing until three consecutive frames have each ridden out their
   full 2 s delivery deadline; the :class:`~repro.infra.CircuitBreaker`
   (fed by the sender's early-suspect signal) trips after the same
   three-failure evidence but from ~0.15 s-old signals, cutting
   time-to-failover by well over the 2× acceptance bar — and fast-fails
   every send while OPEN instead of queueing 2 s of retransmissions
   each.  Half-open probes (paced by the breaker's
   :class:`~repro.infra.RetryPolicy`) bring the link back after the Pi
   restarts.
2. **Send storm** — a send flood against a crashed Pi.  Without
   admission control the ARQ ``_pending`` table grows with every send;
   with a :class:`~repro.infra.TokenBucket` in front the sender sheds
   the excess as *counted* drops (``repro.obs``:``arq.mp_shed``) while
   ``in_flight`` stays bounded by ``burst + rate × duration``.

All timing is simulation time; every episode is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..audio import AcousticChannel, Position
from ..audio.devices import Speaker
from ..core import (
    MpArqSender,
    MusicAgent,
    MusicProtocolMessage,
    PiBridge,
)
from ..core.apps.failover import FailoverManager, InbandFallback
from ..infra import BreakerState, CircuitBreaker, TokenBucket
from ..net.sim import Simulator
from ..net.switch import Switch
from .rigs import build_testbed

#: Seed for every xext14 stage (microphone noise, agent naming).
XEXT14_SEED = 14

MESSAGE = MusicProtocolMessage(1000.0, 0.05, 70.0)


def _pi_rig(seed: int = XEXT14_SEED) -> tuple[Simulator, PiBridge]:
    """A minimal switch + Pi-bridge rig (no acoustic path needed)."""
    sim = Simulator()
    channel = AcousticChannel()
    switch = Switch(sim, "s1")
    agent = MusicAgent(sim, channel, Speaker(Position(1.0, 0.0, 0.0)),
                       name="s1")
    return sim, PiBridge(sim, switch, agent)


# ----------------------------------------------------------------------
# Episode 1: wedged Pi — deadline-only detection vs circuit breaker
# ----------------------------------------------------------------------

@dataclass
class WedgedLinkResult:
    """One crash/restart episode under both policies."""

    wedge_at: float
    recover_at: float
    frame_interval: float
    #: Earliest moment a deadline-only policy (3 consecutive frame
    #: expirations) can declare the link dead.
    baseline_detected_at: float | None
    baseline_latency: float | None
    #: When the breaker actually tripped and failover activated.
    breaker_failover_at: float | None
    breaker_latency: float | None
    #: baseline_latency / breaker_latency (the >= 2x acceptance bar).
    speedup: float | None
    #: Failback to acoustic after the Pi restarts (half-open probe ACK).
    failback_at: float | None
    breaker_trips: int
    fast_failed: int
    baseline_expired: int
    breaker_expired: int
    breaker_transitions: list = field(default_factory=list)


def wedged_link_experiment(
    wedge_at: float = 2.1,
    recover_at: float = 8.0,
    duration: float = 14.0,
    frame_interval: float = 0.25,
    failure_threshold: int = 3,
    seed: int = XEXT14_SEED,
) -> WedgedLinkResult:
    """One Pi wedges and later restarts, under a steady MP frame flow.

    Both runs send the identical schedule.  The baseline detector is
    the best a deadline-only policy can do: declare the link dead after
    ``failure_threshold`` *consecutive* frame expirations — each of
    which takes the full 2 s deadline to manifest.  The breaker run
    feeds the same threshold from the sender's early-suspect signal
    and drives a real in-band failover through
    :meth:`FailoverManager.bind_breaker`.
    """
    frames = int(duration / frame_interval)

    # -- baseline: deadline-only ---------------------------------------
    sim, bridge = _pi_rig(seed)
    sender = MpArqSender(bridge)
    consecutive = {"count": 0}
    detected: list[float] = []

    def _on_ack(_seq: int, _latency: float) -> None:
        consecutive["count"] = 0

    def _on_expire(_seq: int) -> None:
        consecutive["count"] += 1
        if consecutive["count"] == failure_threshold and not detected:
            detected.append(sim.now)

    for index in range(frames):
        sim.schedule_at(index * frame_interval, sender.send_wire,
                        MESSAGE.marshal(), _on_ack, _on_expire)
    sim.schedule_at(wedge_at, bridge.pi.crash)
    sim.schedule_at(recover_at, bridge.pi.restart)
    sim.run(duration + 3.0)
    baseline_stats = sender.stats()
    baseline_at = detected[0] if detected else None

    # -- treatment: circuit breaker + bound failover -------------------
    testbed = build_testbed("single")
    sim = testbed.sim
    bridge = PiBridge(sim, testbed.topo.switches["s1"],
                      testbed.agents["s1"])
    breaker = CircuitBreaker("s1", failure_threshold=failure_threshold,
                             recovery_timeout=1.0)
    sender = MpArqSender(bridge, breaker=breaker)
    fallback = InbandFallback(testbed.topo.hosts["h1"],
                              testbed.topo.hosts["h2"], period=0.1)
    manager = FailoverManager(testbed.controller, None, {"s1": fallback})
    manager.bind_breaker("s1", breaker)
    for index in range(frames):
        sim.schedule_at(index * frame_interval, sender.send_wire,
                        MESSAGE.marshal())
    sim.schedule_at(wedge_at, bridge.pi.crash)
    sim.schedule_at(recover_at, bridge.pi.restart)
    sim.run(duration + 3.0)
    breaker_stats = sender.stats()
    failover_at = next((e.time for e in manager.events
                        if e.action == "to_inband"), None)
    failback_at = next((e.time for e in manager.events
                        if e.action == "to_acoustic"), None)

    baseline_latency = (baseline_at - wedge_at
                        if baseline_at is not None else None)
    breaker_latency = (failover_at - wedge_at
                       if failover_at is not None else None)
    speedup = (baseline_latency / breaker_latency
               if baseline_latency and breaker_latency else None)
    return WedgedLinkResult(
        wedge_at=wedge_at,
        recover_at=recover_at,
        frame_interval=frame_interval,
        baseline_detected_at=baseline_at,
        baseline_latency=baseline_latency,
        breaker_failover_at=failover_at,
        breaker_latency=breaker_latency,
        speedup=speedup,
        failback_at=failback_at,
        breaker_trips=sum(1 for t in breaker.transitions
                          if t.state is BreakerState.OPEN),
        fast_failed=breaker_stats.fast_failed,
        baseline_expired=baseline_stats.expired,
        breaker_expired=breaker_stats.expired,
        breaker_transitions=list(breaker.transitions),
    )


# ----------------------------------------------------------------------
# Episode 2: send storm — unbounded growth vs counted shedding
# ----------------------------------------------------------------------

@dataclass
class StormResult:
    """Send flood on a wedged ARQ link, with and without admission
    control."""

    storm_sends: int
    storm_duration: float
    bucket_rate: float
    bucket_burst: float
    #: Peak ``_pending`` size without admission control.
    bare_peak_in_flight: int
    #: Peak ``_pending`` size with the token bucket in front.
    limited_peak_in_flight: int
    arq_admitted: int
    arq_shed: int
    #: burst + rate x duration — the analytic bound the peak must obey.
    admitted_bound: float


def storm_experiment(
    sends: int = 300,
    storm_duration: float = 1.5,
    bucket_rate: float = 20.0,
    bucket_burst: float = 25.0,
    seed: int = XEXT14_SEED,
) -> StormResult:
    """Flood a crashed Pi's sender and measure what bounds what."""
    interval = storm_duration / sends
    sim, bridge = _pi_rig(seed)
    bridge.pi.crash()
    bare = MpArqSender(bridge)
    for index in range(sends):
        sim.schedule_at(index * interval, bare.send_wire, MESSAGE.marshal())
    sim.run(storm_duration + 3.0)

    sim, bridge = _pi_rig(seed)
    bridge.pi.crash()
    bucket = TokenBucket(bucket_rate, bucket_burst)
    limited = MpArqSender(bridge, admission=bucket)
    for index in range(sends):
        sim.schedule_at(index * interval, limited.send_wire,
                        MESSAGE.marshal())
    sim.run(storm_duration + 3.0)
    limited_stats = limited.stats()
    return StormResult(
        storm_sends=sends,
        storm_duration=storm_duration,
        bucket_rate=bucket_rate,
        bucket_burst=bucket_burst,
        bare_peak_in_flight=bare.peak_in_flight,
        limited_peak_in_flight=limited.peak_in_flight,
        arq_admitted=limited_stats.sent,
        arq_shed=limited_stats.shed,
        admitted_bound=bucket_burst + bucket_rate * storm_duration,
    )


# ----------------------------------------------------------------------
# Top-level driver (CLI / obs entry point)
# ----------------------------------------------------------------------

@dataclass
class Xext14Result:
    """Everything the xext14 CLI run produces."""

    wedged: WedgedLinkResult
    storm: StormResult


def infra_experiment(smoke: bool = False,
                     seed: int = XEXT14_SEED) -> Xext14Result:
    """The full XEXT14 stack; ``smoke`` halves the send storm for CI
    (the wedged-link episode runs at full size either way)."""
    wedged = wedged_link_experiment(seed=seed)
    storm = storm_experiment(sends=150 if smoke else 300, seed=seed)
    return Xext14Result(wedged=wedged, storm=storm)
