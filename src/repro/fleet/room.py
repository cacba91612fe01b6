"""One room of the fleet: build it, run it, report it.

:func:`run_room` is the unit of simulated work: a Simulator, an
AcousticChannel, ``num_switches`` chirping MusicAgents and one
MDNController, run to the spec's horizon.  Every random draw (placement,
stagger) comes from ``seeded_rng(fleet_seed, "room:<id>")``, so a room's
result depends only on its spec — never on which worker ran it, or
when.

The report carries a :class:`~repro.obs.MetricsRegistry` built *after*
the run from simulation-deterministic quantities only (counts, sim-time
lags) — wall-clock cost lives in the separate ``wall_s`` field, so the
serial reference and the process-pool backend produce byte-identical
merged metrics.
"""

from __future__ import annotations

import math
import time as _time
from array import array
from dataclasses import dataclass, field

import numpy as np

from ..audio import AcousticChannel, Microphone, Position, Speaker
from ..core import FrequencyPlan, MDNController, MusicProtocolMessage
from ..core.agent import MusicAgent, play_schedules
from ..faults import seeded_rng
from ..net.sim import Simulator
from ..net.stats import distinct_sorted
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
    schedules = []
    for index in range(spec.num_switches):
        frequency = plan.allocate(
            f"r{spec.room_id}s{index}", 1
        ).frequency_for(0)
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        radius = float(rng.uniform(0.6, 1.2))
        position = Position(radius * math.cos(angle),
                            radius * math.sin(angle), 0.0)
        agent = MusicAgent(sim, channel, Speaker(position),
                           name=f"r{spec.room_id}s{index}")
        rig.agents.append(agent)
        offset = float(rng.uniform(0.0, period))
        starts = []
        start = offset
        while start <= last_start:
            starts.append(start)
            start += period
        schedules.append((agent, starts, MusicProtocolMessage(
            frequency, spec.tone_duration, spec.level_db)))
        rig.chirp_times[frequency] = starts
        rig.emissions += len(starts)
    # Every chirp is known up front: one column batch leaves only the
    # listen timer on the sim heap.
    play_schedules(schedules)
    return rig


def run_room(spec: RoomSpec) -> RoomReport:
    """Simulate one room to its horizon and roll up the report."""
    wall_start = _time.perf_counter()
    rig = _build_room(spec)
    # Onsets as flat (frequency, onset time) pairs: 16 bytes each, where
    # a tuple per onset would cost ~100.
    onsets = array("d")
    rig.controller.watch(
        sorted(rig.chirp_times),
        on_onset=lambda event: onsets.extend((event.frequency, event.time)),
    )
    rig.controller.start()
    rig.sim.run(spec.horizon)
    # Break every cycle through the finished room, so it is freed by
    # refcount: the armed listen event (sim -> heap -> event -> timer ->
    # sim) and anything else left on the heap past the horizon.
    rig.controller.stop()
    rig.sim.drop_pending()

    metrics = MetricsRegistry()
    metrics.counter("fleet.rooms").inc()
    metrics.counter("fleet.switches").inc(spec.num_switches)
    metrics.counter("fleet.emissions").inc(rig.emissions)
    onset_count = len(onsets) // 2
    metrics.counter("fleet.onsets").inc(onset_count)
    metrics.counter("fleet.detections").inc(rig.controller.detections)
    metrics.counter("fleet.windows").inc(rig.controller.windows_processed)
    metrics.counter("fleet.simulated_seconds").inc(spec.horizon)
    metrics.gauge("fleet.peak_tones_in_window").set(
        _peak_tones_per_window(onsets, spec)
    )

    lags, delivered = _attribute_onsets(onsets, rig.chirp_times, spec)
    metrics.histogram("fleet.onset_lag_ms").observe_many(lags)
    spurious = onset_count - len(lags)
    metrics.counter("fleet.delivered").inc(delivered)
    metrics.counter("fleet.spurious_onsets").inc(spurious)

    delivery = delivered / rig.emissions if rig.emissions else 0.0
    return RoomReport(
        room_id=spec.room_id,
        num_switches=spec.num_switches,
        emissions=rig.emissions,
        onsets=onset_count,
        detections=rig.controller.detections,
        windows=rig.controller.windows_processed,
        delivered=delivered,
        spurious_onsets=spurious,
        delivery_ratio=delivery,
        metrics=metrics,
        wall_s=_time.perf_counter() - wall_start,
    )


def _onset_columns(onsets) -> tuple[np.ndarray, np.ndarray]:
    """``(frequency, heard_at)`` arrays of onsets given as ``(frequency,
    time)`` pairs, or as one flat buffer of such pairs."""
    return np.asarray(onsets, dtype=float).reshape(-1, 2).T


def _attribute_onsets(
    onsets, chirp_times: dict[float, list[float]], spec: RoomSpec
) -> tuple[np.ndarray, int]:
    """Attribute each onset to the one chirp it redeems: the lags
    (ms) of the attributed onsets in onset order, and the number of
    distinct chirps they redeem.

    An onset's event time is its *window start*, which can precede the
    chirp (a chirp starting mid-window is heard in that same window), so
    matching is against the window's end: the latest chirp of its
    frequency that started by then.  Anything more than a tone plus two
    windows stale matches no chirp and is leakage (spurious)."""
    frequency, heard_at = _onset_columns(onsets)
    window_end = heard_at + spec.listen_interval
    lag = np.full(len(window_end), math.inf)
    # Chirps numbered across frequencies: frequency k's chirp j is
    # first[k] + j.
    chirp = np.full(len(window_end), -1)
    first = 0
    for chirp_frequency, starts in chirp_times.items():
        mine = np.flatnonzero(frequency == chirp_frequency)
        if len(mine) and starts:
            starts = np.array(starts)
            position = np.searchsorted(starts, window_end[mine], "right") - 1
            found = position >= 0
            mine, position = mine[found], position[found]
            lag[mine] = window_end[mine] - starts[position]
            chirp[mine] = first + position
        first += len(starts)
    attributed = lag <= spec.tone_duration + 2.0 * spec.listen_interval
    lag = lag[attributed]
    lag *= 1e3
    return lag, len(np.unique(chirp[attributed]))


def _peak_tones_per_window(onsets, spec: RoomSpec) -> float:
    """Most distinct frequencies heard in any one listening window —
    a sim-deterministic congestion gauge merged fleet-wide with the
    ``max`` policy.  Window starts carry float error (the window at
    2.0 s can start at 1.9999999999999998), so they are bucketed to
    the nearest window index (``np.rint``), not truncated into the
    previous one."""
    frequency, heard_at = _onset_columns(onsets)
    if not len(frequency):
        return 0.0
    window = np.rint(heard_at / spec.listen_interval).astype(np.int64)
    tones, tone = np.unique(frequency, return_inverse=True)
    pairs = distinct_sorted(window * len(tones) + tone)
    return float(np.bincount(pairs // len(tones)).max())
