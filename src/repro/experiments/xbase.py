"""Baseline-comparison experiments (XBASE1–3 in DESIGN.md).

The paper argues qualitatively against sketches (§5), ECN (§6) and
in-band management (§1).  These experiments make each comparison
quantitative on the same workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..artifact import Result
from ..baselines import (
    ECNMarker,
    ECNReceiver,
    ECNSourceObserver,
    HeartbeatMonitor,
    HeartbeatSender,
    SketchHeavyHitterDetector,
)
from ..core.apps import (
    BandToneMap,
    FlowToneMapper,
    HeartbeatChirper,
    HeavyHitterDetectorApp,
    HeavyHitterEmitter,
    QueueChirper,
    QueueMonitorApp,
)
from ..net import (
    ConstantRateSource,
    FlowKey,
    FlowMixWorkload,
    HostSink,
    VectorizedFlowDriver,
    build_workload,
)
from ..net.flowpop import LABEL_ELEPHANT
from ..core.apps.evaluation import score_heavy_hitter
from .fig4 import LINK_CAPACITY_PPS, precision_recall_note
from .rigs import build_testbed


@dataclass
class SketchVsMdnResult:
    """XBASE1: do the sketch and the acoustic detector agree?"""

    heavy_flow: FlowKey | None
    mdn_detected: bool
    sketch_detected: bool
    mdn_false_positive_buckets: int
    sketch_false_positive_flows: int
    workload: str | None = None
    #: Ground-truth precision/recall for the MDN side — workload runs only.
    mdn_precision_recall: dict | None = None

    @property
    def agree_on_heavy(self) -> bool:
        return self.mdn_detected and self.sketch_detected


def sketch_vs_mdn(
    duration: float = 8.0,
    num_flows: int = 10,
    seed: int = 3,
    workload: str | None = None,
) -> SketchVsMdnResult:
    """Run the same flow mix through both detectors simultaneously.

    ``workload`` swaps the hand mix for a named seeded mix; both
    detectors then compete on a population with ground-truth labels and
    the MDN side is additionally scored as precision/recall.
    """
    testbed = build_testbed("single")
    allocation = testbed.plan.allocate("s1", 16)
    mapper = FlowToneMapper(allocation)
    HeavyHitterEmitter(testbed.topo.switches["s1"], testbed.agents["s1"],
                       mapper)
    mdn_app = HeavyHitterDetectorApp(testbed.controller, mapper)

    # Packet-count threshold equivalent to the tone rule: the heavy
    # flow pushes ~75 pps; mice < 3 pps.
    sketch = SketchHeavyHitterDetector(interval=1.0, threshold=25)
    testbed.topo.switches["s1"].on_forward(
        lambda packet, _in, _out: sketch.observe(packet, testbed.sim.now)
    )
    testbed.controller.start()

    if workload is not None:
        spec = build_workload(workload, num_flows=num_flows, seed=seed,
                              duration=duration)
        population = spec.build().retarget(testbed.topo.hosts["h2"].ip)
        driver = VectorizedFlowDriver(
            testbed.sim, population,
            HostSink(testbed.topo.hosts["h1"], population), stop=duration,
        )
        driver.launch()
        testbed.sim.run(duration)
        sketch.flush(duration)
        mdn_app.finalize(duration)

        elephant_rows = population.indices_with_label(LABEL_ELEPHANT)
        elephant_keys = {
            population.flow_key(int(row)) for row in elephant_rows
        }
        truth_frequencies = {
            mapper.frequency_of(key) for key in elephant_keys
        }
        mouse_keys = {
            population.flow_key(i) for i in range(len(population))
            if population.static[i]
        } - elephant_keys
        heavy = (population.flow_key(int(elephant_rows[0]))
                 if len(elephant_rows) else None)
        flagged = mdn_app.heavy_frequencies()
        return SketchVsMdnResult(
            heavy_flow=heavy,
            mdn_detected=bool(truth_frequencies)
            and truth_frequencies <= flagged,
            sketch_detected=bool(elephant_keys)
            and elephant_keys <= sketch.heavy_flows(),
            mdn_false_positive_buckets=len(flagged - truth_frequencies),
            sketch_false_positive_flows=len(
                sketch.heavy_flows() & mouse_keys
            ),
            workload=workload,
            mdn_precision_recall=score_heavy_hitter(
                mdn_app, population).as_dict(),
        )

    mix = FlowMixWorkload(
        testbed.topo.hosts["h1"], testbed.topo.hosts["h2"].ip,
        link_capacity_pps=LINK_CAPACITY_PPS, num_flows=num_flows, seed=seed,
    )
    mix.launch()
    testbed.sim.run(duration)
    sketch.flush(duration)
    mdn_app.finalize(duration)

    heavy = mix.heavy_flows[0]
    heavy_frequency = mapper.frequency_of(heavy)
    mouse_flows = [spec.flow for spec in mix.specs[1:]]
    mouse_frequencies = {
        mapper.frequency_of(flow) for flow in mouse_flows
    } - {heavy_frequency}
    return SketchVsMdnResult(
        heavy_flow=heavy,
        mdn_detected=heavy_frequency in mdn_app.heavy_frequencies(),
        sketch_detected=heavy in sketch.heavy_flows(),
        mdn_false_positive_buckets=len(
            mdn_app.heavy_frequencies() & mouse_frequencies
        ),
        sketch_false_positive_flows=len(
            sketch.heavy_flows() & set(mouse_flows)
        ),
    )


@dataclass
class EcnVsMdnResult:
    """XBASE2: congestion-notification latency, tone vs ECN echo."""

    congestion_onset: float       #: first time the queue crossed threshold
    mdn_heard_at: float | None    #: controller heard the high tone
    ecn_echo_at: float | None     #: source received the first CE echo
    mdn_latency: float | None
    ecn_latency: float | None


def ecn_vs_mdn(
    duration: float = 12.0,
    source_rate_pps: float = 450.0,
    mark_threshold: int = 76,
) -> EcnVsMdnResult:
    """Congest one switch; race the 300 ms chirp against the ECN echo.

    Both signals key on the same queue state (>75 packets) so their
    notification latencies are directly comparable.
    """
    testbed = build_testbed("single")
    topo = testbed.topo
    switch = topo.switches["s1"]
    port = topo.port_towards("s1", "h2")

    tones = BandToneMap(500.0, 600.0, 700.0)
    QueueChirper(testbed.sim, switch, port, testbed.agents["s1"], tones)
    monitor = QueueMonitorApp(testbed.controller, "s1", tones)
    testbed.controller.start()

    marker = ECNMarker(switch.ports[port], mark_threshold=mark_threshold)
    switch.on_forward(
        lambda packet, _in, out: marker.maybe_mark(packet, testbed.sim.now)
        if out == port else None
    )
    ECNReceiver(topo.hosts["h2"])
    observer = ECNSourceObserver(topo.hosts["h1"])

    # Track when the queue actually crossed the high threshold.
    onset_holder: list[float] = []

    def watch_queue() -> None:
        if not onset_holder and len(switch.ports[port].queue) > 75:
            onset_holder.append(testbed.sim.now)

    testbed.sim.every(0.01, watch_queue)

    source = ConstantRateSource(topo.hosts["h1"], topo.hosts["h2"].ip, 80,
                                rate_pps=source_rate_pps, ecn_capable=True)
    source.launch()
    testbed.sim.run(duration)

    onset = onset_holder[0] if onset_holder else float("nan")
    mdn_heard = next(
        (time for time, band in monitor.band_history if band == "high"), None
    )
    ecn_echo = observer.first_echo_time
    return EcnVsMdnResult(
        congestion_onset=onset,
        mdn_heard_at=mdn_heard,
        ecn_echo_at=ecn_echo,
        mdn_latency=None if mdn_heard is None else mdn_heard - onset,
        ecn_latency=None if ecn_echo is None else ecn_echo - onset,
    )


@dataclass
class InbandVsOobResult:
    """XBASE3: management delivery through a data-plane failure."""

    inband_delivery_rate: float
    inband_max_gap: float
    acoustic_delivery_rate: float

    @property
    def acoustic_survived(self) -> bool:
        return self.acoustic_delivery_rate > 0.9


def inband_vs_oob(
    duration: float = 20.0,
    failure_time: float = 8.0,
) -> InbandVsOobResult:
    """Heartbeats in-band and by tone; the data path dies mid-run."""
    testbed = build_testbed("single")
    topo = testbed.topo
    sender = HeartbeatSender(topo.hosts["h1"], topo.hosts["h2"].ip,
                             period=0.5)
    monitor = HeartbeatMonitor(topo.hosts["h2"], sender)

    chirper = HeartbeatChirper(testbed.sim, testbed.agents["s1"],
                               frequency=1500.0, period=0.5)
    heard: list[float] = []
    testbed.controller.watch([1500.0], on_onset=lambda e: heard.append(e.time))
    testbed.controller.start()

    def cut_network() -> None:
        for link in topo.links:
            link.fail()

    testbed.sim.schedule_at(failure_time, cut_network)
    testbed.sim.run(duration)
    stats = monitor.stats(testbed.sim)
    return InbandVsOobResult(
        inband_delivery_rate=stats.delivery_rate,
        inband_max_gap=stats.max_gap,
        acoustic_delivery_rate=min(1.0, len(heard) / chirper.beats_emitted),
    )


@dataclass
class XbaseResult(Result):
    """XBASE1–3 together."""

    sketch: SketchVsMdnResult
    ecn: EcnVsMdnResult
    oob: InbandVsOobResult

    def rows(self):
        sketch, ecn, oob = self.sketch, self.ecn, self.oob
        return [
            ("XBASE1: sketch vs MDN", [
                ("MDN / sketch detected",
                 f"{sketch.mdn_detected} / {sketch.sketch_detected}"),
                *precision_recall_note("MDN detector",
                                       sketch.mdn_precision_recall),
            ]),
            ("XBASE2: notification latency", [
                ("MDN tone", f"{ecn.mdn_latency * 1000:.0f} ms"),
                ("ECN echo", f"{ecn.ecn_latency * 1000:.0f} ms"),
            ]),
            ("XBASE3: delivery through data-plane failure", [
                ("in-band", f"{oob.inband_delivery_rate:.2f}"),
                ("acoustic", f"{oob.acoustic_delivery_rate:.2f}"),
            ]),
        ]


def baseline_experiment(workload: str | None = None) -> XbaseResult:
    """All three baseline comparisons; ``workload`` drives XBASE1."""
    return XbaseResult(
        sketch=sketch_vs_mdn(workload=workload,
                             num_flows=32 if workload else 10),
        ecn=ecn_vs_mdn(),
        oob=inband_vs_oob(),
    )
