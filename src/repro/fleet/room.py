"""One room of the fleet: build it, run it, report it.

:func:`run_room` is the unit of simulated work: a Simulator, an
AcousticChannel, ``num_switches`` chirping MusicAgents and one
MDNController, run to the spec's horizon.  Every random draw comes from
``seeded_rng(fleet_seed, "room:<id>")`` (placement, stagger) or
``"room:<id>:faults"`` (outages), so a room's result depends only on
its spec — never on which worker ran it, or when.

The report carries a :class:`~repro.obs.MetricsRegistry` built *after*
the run from simulation-deterministic quantities only (counts, sim-time
lags) — wall-clock cost lives in the separate ``wall_s`` field, so the
serial reference and the process-pool backend produce byte-identical
merged metrics.
"""

from __future__ import annotations

import math
import time as _time
from bisect import bisect_right
from dataclasses import dataclass, field

from ..audio import AcousticChannel, Microphone, Position, Speaker
from ..core import FrequencyPlan, MDNController
from ..core.agent import MusicAgent
from ..faults import FaultHarness, seeded_rng
from ..net.sim import Simulator
from ..obs import MetricsRegistry
from .specs import RoomSpec


@dataclass
class RoomReport:
    """What one room hands back across the process boundary."""

    room_id: int
    num_switches: int
    emissions: int
    onsets: int
    detections: int
    windows: int
    speaker_outages: int
    #: Chirps matched by at least one onset (the delivery numerator —
    #: an onset can only redeem the one chirp it is attributed to, so
    #: leakage false positives can never push delivery past 1.0).
    delivered: int
    #: Onsets attributable to no recent chirp (sidelobe leakage).
    spurious_onsets: int
    #: Distinct-chirp delivery: ``delivered / emissions``.
    delivery_ratio: float
    #: Simulation-deterministic metrics (counters + sim-time
    #: histograms); merged fleet-wide by the driver.
    metrics: MetricsRegistry
    #: Wall-clock cost of simulating this room.  Excluded from the
    #: identity signature — it is the one non-deterministic field.
    wall_s: float = 0.0

    def identity_signature(self) -> dict:
        """Everything deterministic, for serial-vs-parallel equality."""
        return {
            "room_id": self.room_id,
            "num_switches": self.num_switches,
            "emissions": self.emissions,
            "onsets": self.onsets,
            "detections": self.detections,
            "windows": self.windows,
            "speaker_outages": self.speaker_outages,
            "delivered": self.delivered,
            "spurious_onsets": self.spurious_onsets,
            "delivery_ratio": self.delivery_ratio,
            "metrics": self.metrics.snapshot(),
        }


@dataclass
class _RoomRig:
    """The built-but-not-yet-run room (internal)."""

    sim: Simulator
    channel: AcousticChannel
    controller: MDNController
    agents: list[MusicAgent] = field(default_factory=list)
    chirp_times: dict[float, list[float]] = field(default_factory=dict)
    emissions: int = 0
    speaker_outages: int = 0


def _build_room(spec: RoomSpec) -> _RoomRig:
    rng = seeded_rng(spec.fleet_seed, f"room:{spec.room_id}")
    sim = Simulator()
    channel = AcousticChannel()
    microphone = Microphone(Position(),
                            seed=int(rng.integers(0, 2**31 - 1)))
    controller = MDNController(
        sim, channel, microphone,
        listen_interval=spec.listen_interval,
    )
    # Every room reuses the same plan band: rooms are acoustically
    # isolated, so spatial reuse is free — the fleet's whole point.
    plan = FrequencyPlan(
        low_hz=spec.low_hz,
        high_hz=spec.low_hz + spec.guard_hz * (spec.num_switches + 2),
        guard_hz=spec.guard_hz,
    )
    rig = _RoomRig(sim, channel, controller)
    period = spec.chirp_period
    # Last chirp must fully sound and leave a post-tone window or two
    # before the horizon, so in-flight tones can't dangle uncounted.
    last_start = spec.horizon - spec.tone_duration - 2 * spec.listen_interval
    positions: list[Position] = []
    for index in range(spec.num_switches):
        frequency = plan.allocate(
            f"r{spec.room_id}s{index}", 1
        ).frequency_for(0)
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        radius = float(rng.uniform(0.6, 1.2))
        position = Position(radius * math.cos(angle),
                            radius * math.sin(angle), 0.0)
        positions.append(position)
        agent = MusicAgent(sim, channel, Speaker(position),
                           name=f"r{spec.room_id}s{index}")
        rig.agents.append(agent)
        offset = float(rng.uniform(0.0, period))
        starts = []
        start = offset
        while start <= last_start:
            sim.schedule_at(start, agent.play, frequency,
                            spec.tone_duration, spec.level_db)
            starts.append(start)
            start += period
        rig.chirp_times[frequency] = starts
        rig.emissions += len(starts)
    if spec.faults is not None and spec.faults.active:
        fault_rng = seeded_rng(spec.fleet_seed,
                               f"room:{spec.room_id}:faults")
        harness = FaultHarness(sim, seed=spec.fleet_seed)
        air = harness.acoustic(channel)
        for index in range(spec.num_switches):
            if fault_rng.uniform() < spec.faults.speaker_outage_rate:
                start = float(fault_rng.uniform(
                    0.0, max(spec.horizon - spec.faults.outage_duration,
                             1e-6)
                ))
                air.drop_speaker(positions[index], start,
                                 start + spec.faults.outage_duration)
                rig.speaker_outages += 1
    if spec.scene is not None:
        spec.scene(sim, channel, rng)
    return rig


def run_room(spec: RoomSpec) -> RoomReport:
    """Simulate one room to its horizon and roll up the report."""
    wall_start = _time.perf_counter()
    rig = _build_room(spec)
    onsets: list[tuple[float, float]] = []  # (frequency, onset time)
    rig.controller.watch(
        sorted(rig.chirp_times),
        on_onset=lambda event: onsets.append((event.frequency, event.time)),
    )
    rig.controller.start()
    rig.sim.run(spec.horizon)

    metrics = MetricsRegistry()
    metrics.counter("fleet.rooms").inc()
    metrics.counter("fleet.switches").inc(spec.num_switches)
    metrics.counter("fleet.emissions").inc(rig.emissions)
    metrics.counter("fleet.onsets").inc(len(onsets))
    metrics.counter("fleet.detections").inc(rig.controller.detections)
    metrics.counter("fleet.windows").inc(rig.controller.windows_processed)
    metrics.counter("fleet.speaker_outages").inc(rig.speaker_outages)
    metrics.counter("fleet.simulated_seconds").inc(spec.horizon)
    metrics.gauge("fleet.peak_tones_in_window").set(
        _peak_tones_per_window(onsets, spec)
    )

    # Attribute each onset to the one chirp it redeems.  An onset's
    # event time is its *window start*, which can precede the chirp
    # (a chirp starting mid-window is heard in that same window), so
    # matching is against the window's end.  Anything more than a tone
    # plus two windows stale matches no chirp and is leakage.
    lag_hist = metrics.histogram("fleet.onset_lag_ms")
    max_lag = spec.tone_duration + 2.0 * spec.listen_interval
    delivered = 0
    spurious = 0
    hit: dict[float, set[int]] = {}
    for frequency, heard_at in onsets:
        starts = rig.chirp_times.get(frequency, [])
        window_end = heard_at + spec.listen_interval
        position = bisect_right(starts, window_end) - 1
        lag = window_end - starts[position] if position >= 0 else math.inf
        if lag > max_lag:
            spurious += 1
            continue
        lag_hist.observe(lag * 1e3)
        redeemed = hit.setdefault(frequency, set())
        if position not in redeemed:
            redeemed.add(position)
            delivered += 1
    metrics.counter("fleet.delivered").inc(delivered)
    metrics.counter("fleet.spurious_onsets").inc(spurious)

    delivery = delivered / rig.emissions if rig.emissions else 0.0
    return RoomReport(
        room_id=spec.room_id,
        num_switches=spec.num_switches,
        emissions=rig.emissions,
        onsets=len(onsets),
        detections=rig.controller.detections,
        windows=rig.controller.windows_processed,
        speaker_outages=rig.speaker_outages,
        delivered=delivered,
        spurious_onsets=spurious,
        delivery_ratio=delivery,
        metrics=metrics,
        wall_s=_time.perf_counter() - wall_start,
    )


def _peak_tones_per_window(onsets, spec: RoomSpec) -> float:
    """Most distinct frequencies heard in any one listening window —
    a sim-deterministic congestion gauge merged fleet-wide with the
    ``max`` policy."""
    per_window: dict[int, set[float]] = {}
    for frequency, heard_at in onsets:
        window = int(heard_at / spec.listen_interval)
        per_window.setdefault(window, set()).add(frequency)
    return float(max((len(v) for v in per_window.values()), default=0))
