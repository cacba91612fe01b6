"""Seedable traffic workloads over columnar flow tables (ROADMAP item 4).

The paper's figures are driven by a hand-built 12-flow mix
(:class:`repro.net.traffic.FlowMixWorkload`); this module replaces that
with a declarative, seeded workload layer in the spirit of the
fleet/containernet ``TrafficGenerator``/``TrafficPattern`` abstraction:

* **Patterns** describe sub-populations — heavy-tailed elephant/mice
  mixes, bursty on/off flows, short-lived benign churn, port-scan and
  fan-out/fan-in campaigns.
* A :class:`WorkloadSpec` combines patterns plus an optional diurnal
  load curve and ``build()``s them into one
  :class:`~repro.net.flowpop.FlowPopulation` (numpy columns, ground
  truth labels).  Same seed ⇒ identical population and departure
  schedule, bit for bit.
* A :class:`VectorizedFlowDriver` walks the population in batched
  windows: one heap event per ``batch_window`` for the *whole*
  population instead of one per packet per flow, so 10⁵–10⁶ flows run
  at the per-event cost of the old 12.

Three sink fidelities trade realism for scale (DESIGN.md §"Workloads"):

* :class:`HostSink` — every departure becomes a real packet through a
  real :class:`~repro.net.host.Host` and the acoustic pipeline; for
  figure-scale populations (≤ a few hundred flows).
* :class:`PresenceSink` — departures are quantized onto the emitter's
  rate-limit grid and delivered to detector apps as synthetic tone
  presence via :class:`~repro.core.telemetry.ToneEventBus`; the real
  detector-app logic runs, audio-free, at 10⁴–10⁵ flows.
* :class:`CountingSink` — pure departure counting; the perf-gate and
  million-flow path.

:class:`PerFlowWorkloadSource` is the retained per-flow-object
reference: one :class:`~repro.net.traffic.TrafficSource` per population
row, emitting the *identical* departure schedule — the equivalence and
speedup baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..faults.harness import seeded_rng
from .flowpop import (
    LABEL_CHURN,
    LABEL_ELEPHANT,
    LABEL_FANIN,
    LABEL_FANOUT,
    LABEL_MOUSE,
    LABEL_SCAN,
    VARY_DST_IP,
    VARY_DST_PORT,
    VARY_NONE,
    VARY_SRC_IP,
    FlowPopulation,
)
from .host import Host
from .packet import FlowKey, Packet, Protocol
from .sim import Simulator
from .traffic import TrafficSource

#: Default seed for ad-hoc workloads (the XEXT16 PR number).
DEFAULT_WORKLOAD_SEED = 16

#: The monitored band the fig4c/d port-scan detector watches; scan
#: campaigns sweep it and a couple of benign service ports sit inside
#: it (false-positive pressure is part of the workload's job).
DEFAULT_SCAN_PORTS = range(8000, 8020)

#: Benign service ports.  8004 and 8011 fall inside
#: :data:`DEFAULT_SCAN_PORTS` on purpose: realistic traffic touches
#: monitored ports too, so scan precision is earned, not free.
DEFAULT_SERVICE_PORTS = (80, 443, 8080, 8004, 8011)


def _columns(n: int) -> dict:
    """Default column block for ``n`` flows (patterns override)."""
    return {
        "src_ips": ["10.0.0.1"] * n,
        "dst_ips": ["10.200.0.1"] * n,
        "src_ports": np.full(n, 10_000, dtype=np.int64),
        "dst_ports": np.full(n, 80, dtype=np.int64),
        "protocols": [Protocol.UDP] * n,
        "rates": np.ones(n, dtype=np.float64),
        "phases": np.zeros(n, dtype=np.float64),
        "starts": np.zeros(n, dtype=np.float64),
        "stops": np.full(n, np.inf, dtype=np.float64),
        "on_durations": np.full(n, np.inf, dtype=np.float64),
        "off_durations": np.zeros(n, dtype=np.float64),
        "labels": np.full(n, LABEL_MOUSE, dtype=np.int8),
        "variation": np.full(n, VARY_NONE, dtype=np.int8),
        "vary_base": np.zeros(n, dtype=np.int64),
        "vary_span": np.ones(n, dtype=np.int64),
        "vary_prefix": [None] * n,
        "packet_sizes": np.full(n, 1_000, dtype=np.int64),
    }


def _random_endpoints(rng: np.random.Generator, columns: dict,
                      service_ports: tuple[int, ...],
                      num_servers: int = 16) -> None:
    """Fill random client/server endpoints into a column block."""
    n = len(columns["src_ips"])
    octets = rng.integers(0, 250, size=(n, 3))
    columns["src_ips"] = [
        f"10.{a}.{b}.{c}" for a, b, c in octets.tolist()
    ]
    servers = rng.integers(1, num_servers + 1, size=n)
    columns["dst_ips"] = [f"10.200.0.{s}" for s in servers.tolist()]
    columns["src_ports"] = rng.integers(1024, 65_536, size=n).astype(np.int64)
    columns["dst_ports"] = rng.choice(
        np.asarray(service_ports, dtype=np.int64), size=n
    )


class TrafficPattern:
    """Base class: a declarative sub-population of a workload."""

    def materialize(self, rng: np.random.Generator,
                    spec: "WorkloadSpec") -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ElephantMicePattern(TrafficPattern):
    """Heavy-tailed elephant/mice mix: the §5 heavy-hitter workload.

    Mouse rates are log-uniform between the range bounds with a
    Zipf-like skew toward the slow end; elephants draw uniformly from
    their (much higher) range — by the paper's definition, a flow
    consuming a sizeable fraction of the 250 pps link.
    """

    num_mice: int = 1_000
    num_elephants: int = 0
    mouse_rate_range: tuple[float, float] = (0.02, 1.0)
    elephant_rate_range: tuple[float, float] = (50.0, 75.0)
    zipf_exponent: float = 1.2
    service_ports: tuple[int, ...] = DEFAULT_SERVICE_PORTS

    def materialize(self, rng: np.random.Generator,
                    spec: "WorkloadSpec") -> dict:
        n = self.num_mice + self.num_elephants
        columns = _columns(n)
        _random_endpoints(rng, columns, self.service_ports)
        lo, hi = self.mouse_rate_range
        mice = lo * (hi / lo) ** (rng.random(self.num_mice)
                                  ** self.zipf_exponent)
        elephants = rng.uniform(*self.elephant_rate_range,
                                size=self.num_elephants)
        rates = np.concatenate([elephants, mice])
        columns["rates"] = rates
        columns["phases"] = rng.random(n) / rates
        labels = columns["labels"]
        labels[: self.num_elephants] = LABEL_ELEPHANT
        return columns


@dataclass(frozen=True)
class OnOffPattern(TrafficPattern):
    """Bursty benign flows: ON at ``rate`` for a while, then silent."""

    num_flows: int = 200
    rate_range: tuple[float, float] = (2.0, 10.0)
    on_range: tuple[float, float] = (0.2, 1.0)
    off_range: tuple[float, float] = (0.5, 2.0)
    service_ports: tuple[int, ...] = DEFAULT_SERVICE_PORTS

    def materialize(self, rng: np.random.Generator,
                    spec: "WorkloadSpec") -> dict:
        columns = _columns(self.num_flows)
        _random_endpoints(rng, columns, self.service_ports)
        rates = rng.uniform(*self.rate_range, size=self.num_flows)
        columns["rates"] = rates
        columns["phases"] = rng.random(self.num_flows) / rates
        columns["on_durations"] = rng.uniform(*self.on_range,
                                              size=self.num_flows)
        columns["off_durations"] = rng.uniform(*self.off_range,
                                               size=self.num_flows)
        return columns


@dataclass(frozen=True)
class ChurnPattern(TrafficPattern):
    """Short-lived benign flows arriving and departing across the run."""

    num_flows: int = 400
    rate_range: tuple[float, float] = (0.5, 5.0)
    lifetime_range: tuple[float, float] = (0.3, 1.5)
    service_ports: tuple[int, ...] = DEFAULT_SERVICE_PORTS

    def materialize(self, rng: np.random.Generator,
                    spec: "WorkloadSpec") -> dict:
        columns = _columns(self.num_flows)
        _random_endpoints(rng, columns, self.service_ports)
        rates = rng.uniform(*self.rate_range, size=self.num_flows)
        starts = rng.uniform(0.0, spec.duration * 0.9, size=self.num_flows)
        lifetimes = rng.uniform(*self.lifetime_range, size=self.num_flows)
        columns["rates"] = rates
        columns["starts"] = starts
        columns["stops"] = starts + lifetimes
        columns["phases"] = starts + rng.random(self.num_flows) / rates
        columns["labels"] = np.full(self.num_flows, LABEL_CHURN,
                                    dtype=np.int8)
        return columns


@dataclass(frozen=True)
class PortScanPattern(TrafficPattern):
    """A sequential port-scan campaign over a monitored band.

    Each probe's destination port cycles ``first_port + k % num_ports``
    — candidate ordinal ``k`` is the probe counter, so one flow row
    paints the whole rising sweep without one object per port.
    """

    first_port: int = DEFAULT_SCAN_PORTS.start
    num_ports: int = len(DEFAULT_SCAN_PORTS)
    probe_rate: float = 100.0
    num_scanners: int = 1
    start: float = 0.0
    campaign_duration: float | None = None

    def materialize(self, rng: np.random.Generator,
                    spec: "WorkloadSpec") -> dict:
        n = self.num_scanners
        columns = _columns(n)
        _random_endpoints(rng, columns, (self.first_port,))
        stop = (spec.duration if self.campaign_duration is None
                else self.start + self.campaign_duration)
        columns["rates"] = np.full(n, self.probe_rate, dtype=np.float64)
        columns["starts"] = np.full(n, self.start, dtype=np.float64)
        columns["stops"] = np.full(n, stop, dtype=np.float64)
        columns["phases"] = self.start + rng.random(n) / self.probe_rate
        columns["labels"] = np.full(n, LABEL_SCAN, dtype=np.int8)
        columns["variation"] = np.full(n, VARY_DST_PORT, dtype=np.int8)
        columns["vary_base"] = np.full(n, self.first_port, dtype=np.int64)
        columns["vary_span"] = np.full(n, self.num_ports, dtype=np.int64)
        return columns


@dataclass(frozen=True)
class FanOutPattern(TrafficPattern):
    """Superspreader campaign: each source sprays ``fan_degree`` hosts."""

    num_sources: int = 1
    fan_degree: int = 50
    rate: float = 50.0
    start: float = 0.0

    def materialize(self, rng: np.random.Generator,
                    spec: "WorkloadSpec") -> dict:
        n = self.num_sources
        columns = _columns(n)
        _random_endpoints(rng, columns, (80,))
        columns["rates"] = np.full(n, self.rate, dtype=np.float64)
        columns["starts"] = np.full(n, self.start, dtype=np.float64)
        columns["phases"] = self.start + rng.random(n) / self.rate
        columns["labels"] = np.full(n, LABEL_FANOUT, dtype=np.int8)
        columns["variation"] = np.full(n, VARY_DST_IP, dtype=np.int8)
        columns["vary_base"] = np.ones(n, dtype=np.int64)
        columns["vary_span"] = np.full(n, self.fan_degree, dtype=np.int64)
        columns["vary_prefix"] = ["10.99.0."] * n
        return columns


@dataclass(frozen=True)
class FanInPattern(TrafficPattern):
    """DDoS-victim campaign: spoofed sources converge on one target."""

    num_victims: int = 1
    fan_degree: int = 50
    rate: float = 50.0
    start: float = 0.0

    def materialize(self, rng: np.random.Generator,
                    spec: "WorkloadSpec") -> dict:
        n = self.num_victims
        columns = _columns(n)
        _random_endpoints(rng, columns, (80,))
        columns["rates"] = np.full(n, self.rate, dtype=np.float64)
        columns["starts"] = np.full(n, self.start, dtype=np.float64)
        columns["phases"] = self.start + rng.random(n) / self.rate
        columns["labels"] = np.full(n, LABEL_FANIN, dtype=np.int8)
        columns["variation"] = np.full(n, VARY_SRC_IP, dtype=np.int8)
        columns["vary_base"] = np.ones(n, dtype=np.int64)
        columns["vary_span"] = np.full(n, self.fan_degree, dtype=np.int64)
        columns["vary_prefix"] = ["10.98.0."] * n
        return columns


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete seeded workload: patterns + diurnal curve + horizon.

    ``build()`` is pure: the same spec always produces the same
    :class:`FlowPopulation` (each pattern draws from
    ``seeded_rng(seed, "workload:<index>:<PatternClass>")``, so streams
    are independent and stable under pattern reordering-by-index).
    """

    seed: int = DEFAULT_WORKLOAD_SEED
    duration: float = 8.0
    patterns: tuple[TrafficPattern, ...] = ()
    diurnal_amplitude: float = 0.0
    diurnal_period: float = 8.0

    def build(self) -> FlowPopulation:
        merged: dict[str, list] = {key: [] for key in _columns(0)}
        for index, pattern in enumerate(self.patterns):
            rng = seeded_rng(
                self.seed, f"workload:{index}:{type(pattern).__name__}"
            )
            block = pattern.materialize(rng, self)
            for key, column in block.items():
                merged[key].append(column)
        columns = {}
        for key, parts in merged.items():
            if parts and isinstance(parts[0], np.ndarray):
                columns[key] = np.concatenate(parts) if parts else np.empty(0)
            else:
                columns[key] = [item for part in parts for item in part]
        return FlowPopulation(
            **columns,
            diurnal_amplitude=self.diurnal_amplitude,
            diurnal_period=self.diurnal_period,
        )


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------


class CountingSink:
    """Schedule-only fidelity: counts departures, total and per flow."""

    def __init__(self, population: FlowPopulation) -> None:
        self.total = 0
        self.per_flow = np.zeros(len(population), dtype=np.int64)

    def emit_batch(self, times: np.ndarray, flow_idx: np.ndarray,
                   ks: np.ndarray, population: FlowPopulation) -> None:
        self.total += len(times)
        self.per_flow += np.bincount(flow_idx, minlength=len(self.per_flow))


class HostSink:
    """Full fidelity: each departure becomes a real packet sent from a
    real host at its exact departure time — the figure-pipeline path.
    Costs one sim event per packet, so keep populations figure-sized."""

    def __init__(self, host: Host, population: FlowPopulation) -> None:
        self.host = host
        self.population = population
        self.packets_sent = 0
        #: One key per static flow, built on its first packet: a static
        #: flow's key never changes, so it is built and validated once.
        self._static_keys: dict[int, FlowKey] = {}

    def emit_batch(self, times: np.ndarray, flow_idx: np.ndarray,
                   ks: np.ndarray, population: FlowPopulation) -> None:
        sim = self.host.sim
        for t, i, k in zip(times.tolist(), flow_idx.tolist(), ks.tolist()):
            sim.schedule_at(t, self._send, i, k)

    def _send(self, i: int, k: int) -> None:
        population = self.population
        key = self._static_keys.get(i)
        if key is None:
            key = population.flow_key(i, k)
            if population.static[i]:
                self._static_keys[i] = key
        host = self.host
        host.send_packet(Packet(key, size_bytes=int(population.packet_sizes[i]),
                                created_at=host.sim.now))
        self.packets_sent += 1


class BucketPresenceTap:
    """Heavy-hitter telemetry without audio: quantizes static-flow
    departures onto the emitter's per-bucket rate-limit grid.

    The real :class:`HeavyHitterEmitter` plays at most one tone per
    bucket per ``emission_period``; presence on a grid of that period
    is the same signal the detector counts (windows of presence), minus
    acoustic loss.  Varying-key campaign flows are excluded — their
    per-packet keys spread over thousands of buckets with negligible
    per-bucket presence.
    """

    def __init__(self, frequencies: list[float], period: float = 0.1) -> None:
        self.frequencies = np.asarray(frequencies, dtype=np.float64)
        self.period = period
        self._last_slot = np.full(len(frequencies), -1, dtype=np.int64)
        self.tones = 0

    def observe(self, times: np.ndarray, flow_idx: np.ndarray,
                ks: np.ndarray, population: FlowPopulation,
                bus) -> None:
        static = population.static[flow_idx]
        if not static.any():
            return
        num_buckets = np.uint64(len(self.frequencies))
        buckets = (population.stable_hashes[flow_idx[static]]
                   % num_buckets).astype(np.int64)
        slots = np.floor_divide(times[static], self.period).astype(np.int64)
        packed = np.unique(slots * np.int64(len(self.frequencies)) + buckets)
        slot = packed // len(self.frequencies)
        bucket = packed % len(self.frequencies)
        fresh = slot > self._last_slot[bucket]
        slot, bucket = slot[fresh], bucket[fresh]
        if not len(slot):
            return
        np.maximum.at(self._last_slot, bucket, slot)
        self.tones += len(slot)
        bus.push_batch(self.frequencies[bucket], slot * self.period)


class PortPresenceTap:
    """Port-scan telemetry without audio: per-port presence on the
    emitter's refractory grid, over a monitored port range."""

    def __init__(self, port_range: range, frequencies: list[float],
                 period: float = 0.1) -> None:
        if port_range.step != 1:
            raise ValueError("port_range must have step 1")
        if len(frequencies) < len(port_range):
            raise ValueError("need one frequency per monitored port")
        self.port_range = port_range
        self.frequencies = np.asarray(frequencies, dtype=np.float64)
        self.period = period
        self._last_slot = np.full(len(port_range), -1, dtype=np.int64)
        self.tones = 0

    def observe(self, times: np.ndarray, flow_idx: np.ndarray,
                ks: np.ndarray, population: FlowPopulation,
                bus) -> None:
        ports = population.dst_ports_for(flow_idx, ks)
        monitored = (ports >= self.port_range.start) & \
                    (ports < self.port_range.stop)
        if not monitored.any():
            return
        index = ports[monitored] - self.port_range.start
        slots = np.floor_divide(times[monitored], self.period).astype(np.int64)
        span = np.int64(len(self.port_range))
        packed = np.unique(slots * span + index)
        slot = packed // span
        port_idx = packed % span
        fresh = slot > self._last_slot[port_idx]
        slot, port_idx = slot[fresh], port_idx[fresh]
        if not len(slot):
            return
        np.maximum.at(self._last_slot, port_idx, slot)
        self.tones += len(slot)
        bus.push_batch(self.frequencies[port_idx], slot * self.period)


class PresenceSink:
    """Telemetry fidelity: batched departures → grid-quantized tone
    presence → a :class:`~repro.core.telemetry.ToneEventBus` feeding
    the *real* detector apps, no audio in the loop."""

    def __init__(self, bus, taps: list) -> None:
        self.bus = bus
        self.taps = list(taps)

    def emit_batch(self, times: np.ndarray, flow_idx: np.ndarray,
                   ks: np.ndarray, population: FlowPopulation) -> None:
        for tap in self.taps:
            tap.observe(times, flow_idx, ks, population, self.bus)


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------


class VectorizedFlowDriver:
    """Batched departure scheduling over a :class:`FlowPopulation`.

    One sim event per ``batch_window`` computes every departure of the
    whole population inside that window and hands them to the sink —
    consecutive windows cost one whole-column numpy compare plus array
    work per departure (see :meth:`FlowPopulation.departures_between`),
    not one Python callback per packet.
    """

    def __init__(
        self,
        sim: Simulator,
        population: FlowPopulation,
        sink,
        stop: float,
        batch_window: float = 0.25,
        start: float = 0.0,
    ) -> None:
        if batch_window <= 0:
            raise ValueError("batch_window must be positive")
        if stop <= start:
            raise ValueError("stop must be after start")
        self.sim = sim
        self.population = population
        self.sink = sink
        self.stop = stop
        self.batch_window = batch_window
        self.start = start
        self.batches = 0
        self.packets_emitted = 0
        self._m_packets = obs.counter("workload.packets")
        self._m_batches = obs.counter("workload.batches")

    def launch(self) -> None:
        self.sim.schedule_at(self.start, self._on_batch, self.start)

    def _on_batch(self, window_start: float) -> None:
        window_end = min(window_start + self.batch_window, self.stop)
        times, flow_idx, ks = self.population.departures_between(
            window_start, window_end
        )
        if len(times):
            self.sink.emit_batch(times, flow_idx, ks, self.population)
            self.packets_emitted += len(times)
            self._m_packets.inc(len(times))
        self.batches += 1
        self._m_batches.inc()
        if window_end < self.stop:
            self.sim.schedule_at(window_end, self._on_batch, window_end)


class PerFlowWorkloadSource(TrafficSource):
    """The retained per-flow-object reference path.

    One :class:`TrafficSource` per population row, emitting exactly the
    population's departure schedule via absolute-time scheduling (no
    gap-sum drift) — the baseline the vectorized driver must match
    packet-for-packet and beat ≥10× on wall clock.
    """

    def __init__(self, host, population: FlowPopulation, index: int,
                 until: float) -> None:
        key = population.flow_key(index, 0)
        super().__init__(
            host, key.dst_ip, key.dst_port, src_port=key.src_port,
            packet_size=int(population.packet_sizes[index]),
            protocol=key.protocol,
        )
        self.population = population
        self.index = index
        self.until = until
        self._pending = population.next_departure(index, 0, until)

    def launch(self) -> None:
        if self._pending is None:
            return
        if self._running:
            raise RuntimeError("source already launched")
        self._running = True
        self._generation += 1
        self.sim.schedule_at(max(self._pending[1], self.sim.now),
                             self._emit, self._generation)

    def _emit(self, generation: int) -> None:
        if not self._running or generation != self._generation:
            return
        assert self._pending is not None
        k, _t = self._pending
        self._send_one()
        self._pending = self.population.next_departure(
            self.index, k + 1, self.until
        )
        if self._pending is None:
            self._running = False
            return
        self.sim.schedule_at(self._pending[1], self._emit, generation)

    def _send_one(self) -> None:
        assert self._pending is not None
        k, _t = self._pending
        packet = Packet(
            self.population.flow_key(self.index, k),
            size_bytes=self.packet_size,
            created_at=self.sim.now,
        )
        self.host.send_packet(packet)
        self.packets_emitted += 1

    def next_gap(self) -> float | None:  # pragma: no cover - unused
        raise NotImplementedError("PerFlowWorkloadSource schedules absolutely")


class CountingHost:
    """Duck-typed host that absorbs packets without a topology — a real
    :class:`Host` with no link raises on transmit, which would poison
    the per-flow reference benchmark with error handling."""

    def __init__(self, sim: Simulator, ip: str = "10.0.0.250") -> None:
        self.sim = sim
        self.ip = ip
        self.packets_sent = 0

    def send_packet(self, packet: Packet) -> None:
        self.packets_sent += 1


def launch_reference_sources(
    host, population: FlowPopulation, until: float
) -> list[PerFlowWorkloadSource]:
    """One launched :class:`PerFlowWorkloadSource` per population row."""
    sources = [
        PerFlowWorkloadSource(host, population, index, until)
        for index in range(len(population))
    ]
    for source in sources:
        source.launch()
    return sources


# ----------------------------------------------------------------------
# Named mixes
# ----------------------------------------------------------------------


def mice_only(num_flows: int = 2_000, seed: int = DEFAULT_WORKLOAD_SEED,
              duration: float = 8.0) -> WorkloadSpec:
    """Pure mice: no flow is truly heavy, so every heavy-hitter alert
    is a false positive — the precision floor."""
    return WorkloadSpec(seed=seed, duration=duration, patterns=(
        ElephantMicePattern(num_mice=num_flows, num_elephants=0),
    ))


def elephants_and_mice(num_flows: int = 2_000,
                       seed: int = DEFAULT_WORKLOAD_SEED,
                       duration: float = 8.0) -> WorkloadSpec:
    """The §5 heavy-hitter mix at population scale: a handful of true
    elephants buried in heavy-tailed mice."""
    num_elephants = max(1, num_flows // 500)
    return WorkloadSpec(seed=seed, duration=duration, patterns=(
        ElephantMicePattern(num_mice=num_flows - num_elephants,
                            num_elephants=num_elephants),
    ))


def scan_under_churn(num_flows: int = 2_000,
                     seed: int = DEFAULT_WORKLOAD_SEED,
                     duration: float = 8.0) -> WorkloadSpec:
    """A port-scan campaign hidden inside benign churn — the port-scan
    detector's recall test with realistic false-positive pressure."""
    num_churn = max(1, (num_flows * 2) // 5)
    num_mice = max(1, num_flows - num_churn - 1)
    return WorkloadSpec(seed=seed, duration=duration, patterns=(
        ElephantMicePattern(num_mice=num_mice, num_elephants=0),
        ChurnPattern(num_flows=num_churn),
        PortScanPattern(start=duration * 0.25,
                        campaign_duration=duration * 0.4),
    ))


def bursty_diurnal(num_flows: int = 2_000,
                   seed: int = DEFAULT_WORKLOAD_SEED,
                   duration: float = 8.0) -> WorkloadSpec:
    """Elephants and mice under on/off bursts and a diurnal load curve
    — detection robustness when 'heavy' flickers with time of day."""
    num_elephants = max(1, num_flows // 500)
    num_bursty = max(1, num_flows // 5)
    num_mice = max(1, num_flows - num_elephants - num_bursty)
    return WorkloadSpec(
        seed=seed, duration=duration,
        diurnal_amplitude=0.6, diurnal_period=max(duration / 2.0, 1e-9),
        patterns=(
            ElephantMicePattern(num_mice=num_mice,
                                num_elephants=num_elephants),
            OnOffPattern(num_flows=num_bursty),
        ),
    )


WORKLOAD_MIXES = {
    "mice": mice_only,
    "elephants-mice": elephants_and_mice,
    "scan-churn": scan_under_churn,
    "bursty-diurnal": bursty_diurnal,
}


def build_workload(name: str, *, num_flows: int = 2_000,
                   seed: int = DEFAULT_WORKLOAD_SEED,
                   duration: float = 8.0) -> WorkloadSpec:
    """Look up a named mix and size it; the ``--workload`` axis."""
    try:
        factory = WORKLOAD_MIXES[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; available: {sorted(WORKLOAD_MIXES)}"
        ) from None
    return factory(num_flows=num_flows, seed=seed, duration=duration)
