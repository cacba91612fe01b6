"""XEXT16 — workload mixes swept into detector precision/recall.

ROADMAP item 4: the paper's figures are driven by a 12-flow hand mix,
so they demonstrate detection but never *measure* it.  This experiment
drives the real heavy-hitter and port-scan detector apps with seeded
workload populations (:mod:`repro.net.workload`) whose ground truth is
known — which flows are truly elephants, which packets belong to a
scan campaign — and reports precision/recall per mix, plus
threshold-swept curves computed post hoc from the closed interval
histograms.

Detection runs at **telemetry fidelity**: batched departures are
quantized onto the emitter rate-limit grid and fed to the unmodified
detector apps through a :class:`~repro.core.telemetry.ToneEventBus`
(DESIGN.md §"Workloads" explains the three fidelity levels).  Two more
records round out the benchmark:

* **scale** — the vectorized driver pushing 10⁵(+) flows through a
  counting sink, wall-clocked;
* **speedup** — the same 10k-flow population through the vectorized
  driver vs one :class:`~repro.net.workload.PerFlowWorkloadSource`
  object per flow, with packet-count identity checked; the perf gate
  pins the ratio ≥ 10×.

Results land in ``.benchmarks/BENCH_xext16.json``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..artifact import WALL_TIME, Result
from ..core.apps import (
    FlowToneMapper,
    HeavyHitterDetectorApp,
    PortScanDetectorApp,
    PortToneMapper,
    heavy_hitter_curve,
    port_scan_curve,
    score_heavy_hitter,
    score_port_scan,
)
from ..core.frequency_plan import Allocation
from ..core.telemetry import ToneEventBus
from ..net.sim import Simulator
from ..net.workload import (
    DEFAULT_SCAN_PORTS,
    BucketPresenceTap,
    CountingHost,
    CountingSink,
    PortPresenceTap,
    PresenceSink,
    VectorizedFlowDriver,
    build_workload,
    launch_reference_sources,
)

#: Seed for every xext16 workload (the PR sequence number).
XEXT16_SEED = 16

#: Presence grid = the emitter rate-limit period = the listen window.
PRESENCE_PERIOD = 0.1

#: Hash buckets for the heavy-hitter detector (the sketch width).
NUM_BUCKETS = 256

HH_THRESHOLDS = [1, 2, 3, 5, 7, 9]
SCAN_THRESHOLDS = [1, 2, 3, 5, 8, 12]


@dataclass
class WorkloadMixPoint:
    """One mix's detector scores against ground truth."""

    name: str
    num_flows: int
    packets: int
    label_counts: dict[str, int]
    heavy_hitter: dict
    port_scan: dict
    heavy_hitter_curve: list[dict]
    port_scan_curve: list[dict]
    wall_s: float = field(metadata=WALL_TIME)


@dataclass
class WorkloadScalePoint:
    """Vectorized driver wall-clock at one population size."""

    num_flows: int
    packets: int
    build_s: float = field(metadata=WALL_TIME)
    run_s: float = field(metadata=WALL_TIME)
    packets_per_wall_second: float = field(metadata=WALL_TIME)


@dataclass
class WorkloadSpeedupPoint:
    """Vectorized driver vs per-flow-object reference, same population."""

    num_flows: int
    packets_vectorized: int
    packets_reference: int
    #: Per-flow packet counts identical between the two paths.
    counts_match: bool
    vectorized_wall_s: float = field(metadata=WALL_TIME)
    reference_wall_s: float = field(metadata=WALL_TIME)
    speedup: float = field(metadata=WALL_TIME)


@dataclass
class Xext16Result(Result):
    """The full workload record (and the BENCH_xext16.json shape)."""

    seed: int
    smoke: bool
    mix_duration: float
    num_buckets: int
    presence_period: float
    mixes: list[WorkloadMixPoint] = field(default_factory=list)
    scale: list[WorkloadScalePoint] = field(default_factory=list)
    speedup: WorkloadSpeedupPoint | None = None

    derived = ("max_flows_sustained",)

    @property
    def max_flows_sustained(self) -> int:
        return max((point.num_flows for point in self.scale), default=0)

    def rows(self):
        speedup = self.speedup
        return [
            (f"XEXT16: workload mixes over {self.mix_duration:.0f} s "
             f"({self.num_buckets} buckets, "
             f"{self.presence_period * 1000:.0f} ms presence grid)", [
                 (point.name,
                  f"{point.num_flows} flows, {point.packets} pkts  "
                  f"hh P/R {point.heavy_hitter['precision']:.2f}/"
                  f"{point.heavy_hitter['recall']:.2f}  "
                  f"scan P/R {point.port_scan['precision']:.2f}/"
                  f"{point.port_scan['recall']:.2f}  "
                  f"({point.wall_s:.2f} s wall)")
                 for point in self.mixes
             ]),
            ("XEXT16: vectorized driver scale", [
                (f"{point.num_flows:>9,} flows",
                 f"{point.packets:>9,} pkts  build {point.build_s:5.2f} s  "
                 f"run {point.run_s:5.2f} s  "
                 f"{point.packets_per_wall_second:>9,.0f} pkt/s")
                for point in self.scale
            ]),
            ("XEXT16: vectorized vs per-flow reference", [
                (f"{speedup.num_flows:,} flows",
                 f"vector {speedup.vectorized_wall_s:.3f} s  "
                 f"reference {speedup.reference_wall_s:.3f} s  "
                 f"speedup {speedup.speedup:.1f}x  "
                 f"counts identical: {speedup.counts_match}"),
            ]),
        ]


def _run_mix(name: str, num_flows: int, duration: float,
             seed: int) -> WorkloadMixPoint:
    """Drive one named mix through both detector apps, audio-free."""
    wall_start = time.perf_counter()
    spec = build_workload(name, num_flows=num_flows, seed=seed,
                          duration=duration)
    population = spec.build()

    # Disjoint synthetic tone blocks: telemetry fidelity needs stable
    # identifiers, not a physically plausible band.
    bucket_alloc = Allocation("xext16-hh", tuple(
        1_000.0 + 20.0 * i for i in range(NUM_BUCKETS)
    ))
    port_alloc = Allocation("xext16-scan", tuple(
        1_000.0 + 20.0 * (NUM_BUCKETS + i)
        for i in range(len(DEFAULT_SCAN_PORTS))
    ))

    bus = ToneEventBus(window=PRESENCE_PERIOD)
    hh_app = HeavyHitterDetectorApp(bus, FlowToneMapper(bucket_alloc))
    scan_app = PortScanDetectorApp(
        bus, PortToneMapper(port_alloc, DEFAULT_SCAN_PORTS)
    )

    sim = Simulator()
    sink = PresenceSink(bus, [
        BucketPresenceTap(list(bucket_alloc.frequencies), PRESENCE_PERIOD),
        PortPresenceTap(DEFAULT_SCAN_PORTS, list(port_alloc.frequencies),
                        PRESENCE_PERIOD),
    ])
    driver = VectorizedFlowDriver(sim, population, sink, stop=duration)
    driver.launch()
    sim.run(duration)
    bus.dispatch()
    hh_app.finalize(duration)
    scan_app.finalize(duration)

    heavy = score_heavy_hitter(hh_app, population)
    scan = score_port_scan(scan_app, population, DEFAULT_SCAN_PORTS,
                           duration)
    hh_curve = heavy_hitter_curve(hh_app, population, HH_THRESHOLDS)
    sc_curve = port_scan_curve(scan_app, population, DEFAULT_SCAN_PORTS,
                               duration, SCAN_THRESHOLDS)
    return WorkloadMixPoint(
        name=name,
        num_flows=len(population),
        packets=driver.packets_emitted,
        label_counts=population.label_counts(),
        heavy_hitter=heavy.as_dict(),
        port_scan=scan.as_dict(),
        heavy_hitter_curve=[
            {"threshold": threshold, **pr.as_dict()}
            for threshold, pr in hh_curve
        ],
        port_scan_curve=[
            {"threshold": threshold, **pr.as_dict()}
            for threshold, pr in sc_curve
        ],
        wall_s=time.perf_counter() - wall_start,
    )


def _run_scale_point(num_flows: int, duration: float,
                     seed: int) -> WorkloadScalePoint:
    """Wall-clock the vectorized driver at one population size."""
    spec = build_workload("elephants-mice", num_flows=num_flows, seed=seed,
                          duration=duration)
    build_start = time.perf_counter()
    population = spec.build()
    build_s = time.perf_counter() - build_start

    sim = Simulator()
    sink = CountingSink(population)
    driver = VectorizedFlowDriver(sim, population, sink, stop=duration)
    driver.launch()
    run_start = time.perf_counter()
    sim.run(duration)
    run_s = time.perf_counter() - run_start
    return WorkloadScalePoint(
        num_flows=num_flows,
        packets=sink.total,
        build_s=build_s,
        run_s=run_s,
        packets_per_wall_second=(sink.total / run_s) if run_s else 0.0,
    )


def measure_speedup(num_flows: int = 10_000, duration: float = 2.0,
                    seed: int = XEXT16_SEED) -> WorkloadSpeedupPoint:
    """Vectorized driver vs per-flow-object reference on one shared
    population — the ≥10× perf-gate measurement."""
    spec = build_workload("elephants-mice", num_flows=num_flows, seed=seed,
                          duration=duration)
    population = spec.build()

    sim_vec = Simulator()
    sink = CountingSink(population)
    driver = VectorizedFlowDriver(sim_vec, population, sink, stop=duration)
    driver.launch()
    vec_start = time.perf_counter()
    sim_vec.run(duration)
    vec_s = time.perf_counter() - vec_start

    sim_ref = Simulator()
    host = CountingHost(sim_ref)
    ref_start = time.perf_counter()
    sources = launch_reference_sources(host, population, duration)
    sim_ref.run(duration)
    ref_s = time.perf_counter() - ref_start

    per_flow_reference = [source.packets_emitted for source in sources]
    counts_match = per_flow_reference == sink.per_flow.tolist()
    return WorkloadSpeedupPoint(
        num_flows=num_flows,
        packets_vectorized=sink.total,
        packets_reference=host.packets_sent,
        counts_match=counts_match,
        vectorized_wall_s=vec_s,
        reference_wall_s=ref_s,
        speedup=(ref_s / vec_s) if vec_s else 0.0,
    )


def workload_experiment(smoke: bool = False,
                        seed: int = XEXT16_SEED) -> Xext16Result:
    """Run the full workload benchmark.

    ``smoke`` shrinks mix populations and the horizon but keeps the
    acceptance-critical shape: three mixes with precision/recall, a
    100k-flow scale point, and the 10k-flow speedup measurement.
    """
    if smoke:
        mix_flows, duration = 600, 4.0
        mix_names = ["mice", "elephants-mice", "scan-churn"]
        scale_sizes = [10_000, 100_000]
    else:
        mix_flows, duration = 2_000, 8.0
        mix_names = ["mice", "elephants-mice", "scan-churn",
                     "bursty-diurnal"]
        scale_sizes = [10_000, 100_000, 1_000_000]

    result = Xext16Result(
        seed=seed, smoke=smoke, mix_duration=duration,
        num_buckets=NUM_BUCKETS, presence_period=PRESENCE_PERIOD,
    )
    for name in mix_names:
        result.mixes.append(_run_mix(name, mix_flows, duration, seed))
    for num_flows in scale_sizes:
        result.scale.append(_run_scale_point(num_flows, 2.0, seed))
    result.speedup = measure_speedup(seed=seed)
    return result
