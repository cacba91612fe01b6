"""Figure 4 experiments: Music-Defined Telemetry.

* **Fig 4a/4b** — heavy-hitter detection, without / with a pop song as
  background noise.
* **Fig 4c/4d** — port-scan detection, without / with the song; the
  scan paints a rising line on the mel spectrogram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..artifact import Result
from ..audio import SongNoise, dominant_mel_track, mel_spectrogram
from ..core.apps import (
    FlowToneMapper,
    HeavyHitterAlert,
    HeavyHitterDetectorApp,
    HeavyHitterEmitter,
    PortScanDetectorApp,
    PortScanEmitter,
    PortToneMapper,
    ScanAlert,
)
from ..net import (
    FlowKey,
    FlowMixWorkload,
    HostSink,
    PortScanSource,
    TimeSeries,
    VectorizedFlowDriver,
    build_workload,
)
from ..net.flowpop import LABEL_ELEPHANT
from ..core.apps.evaluation import (
    heavy_hitter_truth_buckets,
    score_heavy_hitter,
    score_port_scan,
)
from .rigs import build_testbed

#: Link rate used for telemetry runs: 2 Mb/s at 1000 B -> 250 pkt/s.
LINK_CAPACITY_PPS = 250.0

SCAN_PORTS = range(8000, 8020)


def _condition(with_song: bool, workload: str | None) -> str:
    condition = "with song" if with_song else "clean"
    return condition + (f", workload {workload}" if workload else "")


def precision_recall_note(label: str, pr: dict | None) -> list[str]:
    """The ground-truth score line printed under a table, if scored."""
    if pr is None:
        return []
    return [f"{label} vs ground truth: "
            f"precision {pr['precision']:.2f}  recall {pr['recall']:.2f}  "
            f"(tp {pr['true_positives']}, fp {pr['false_positives']}, "
            f"fn {pr['false_negatives']})"]


@dataclass
class Fig4ABResult(Result):
    """Heavy-hitter run outcome."""

    heavy_flow: FlowKey | None
    heavy_frequency: float
    alerts: list[HeavyHitterAlert]
    heavy_detected: bool
    false_positive_frequencies: set[float]
    per_interval_heavy_counts: TimeSeries
    with_song: bool
    #: Named workload mix the run was driven by (None = the paper's
    #: hand-tuned 12-flow mix).
    workload: str | None = None
    #: Ground-truth precision/recall — only when driven by a workload,
    #: which is the only case where truth labels exist.
    precision_recall: dict | None = None

    def rows(self):
        counts = self.per_interval_heavy_counts
        rows = [("interval end", "heavy-bucket windows")]
        rows += [(f"{t:.0f}", int(v))
                 for t, v in zip(counts.times, counts.values)]
        rows.append(f"heavy flow {self.heavy_flow} -> "
                    f"{self.heavy_frequency:.0f} Hz; detected: "
                    f"{self.heavy_detected}; false positives: "
                    f"{len(self.false_positive_frequencies)}")
        rows += precision_recall_note("heavy hitter", self.precision_recall)
        title = _condition(self.with_song, self.workload)
        return [(f"Fig 4a/b ({title}): heavy hitter detection", rows)]


def heavy_hitter_experiment(
    with_song: bool = False,
    duration: float = 8.0,
    num_flows: int = 10,
    num_buckets: int = 16,
    heavy_fraction: float = 0.3,
    count_threshold: int = 5,
    seed: int = 3,
    workload: str | None = None,
) -> Fig4ABResult:
    """Run Figure 4a (``with_song=False``) or 4b (``True``).

    ``workload`` swaps the paper's hand mix for a named seeded mix from
    :data:`repro.net.workload.WORKLOAD_MIXES`, driven through the same
    acoustic testbed by the vectorized driver, and adds ground-truth
    precision/recall to the result.  Population size stays figure-scale
    (``num_flows``) so the 250 pkt/s link is not the bottleneck.
    """
    testbed = build_testbed("single")
    allocation = testbed.plan.allocate("s1", num_buckets)
    mapper = FlowToneMapper(allocation)
    HeavyHitterEmitter(testbed.topo.switches["s1"], testbed.agents["s1"],
                       mapper)
    app = HeavyHitterDetectorApp(testbed.controller, mapper,
                                 count_threshold=count_threshold)
    if with_song:
        song = SongNoise(seed=2018, level_db=55.0).render(duration)
        testbed.channel.add_noise(song, loop=True)
    testbed.controller.start()

    if workload is not None:
        spec = build_workload(workload, num_flows=num_flows, seed=seed,
                              duration=duration)
        population = spec.build().retarget(testbed.topo.hosts["h2"].ip)
        sink = HostSink(testbed.topo.hosts["h1"], population)
        driver = VectorizedFlowDriver(testbed.sim, population, sink,
                                      stop=duration)
        driver.launch()
        testbed.sim.run(duration)
        app.finalize(duration)

        truth = heavy_hitter_truth_buckets(population, len(allocation))
        truth_frequencies = {
            allocation.frequency_for(bucket) for bucket in truth
        }
        elephants = population.indices_with_label(LABEL_ELEPHANT)
        heavy_flow = (population.flow_key(int(elephants[0]))
                      if len(elephants) else None)
        heavy_frequency = (mapper.frequency_of(heavy_flow)
                           if heavy_flow is not None else float("nan"))
        flagged = app.heavy_frequencies()
        return Fig4ABResult(
            heavy_flow=heavy_flow,
            heavy_frequency=heavy_frequency,
            alerts=list(app.alerts),
            heavy_detected=bool(truth_frequencies)
            and truth_frequencies <= flagged,
            false_positive_frequencies=flagged - truth_frequencies,
            per_interval_heavy_counts=(
                app.counter.count_history(heavy_frequency)
                if heavy_flow is not None
                else TimeSeries("fig4.heavy_counts")),
            with_song=with_song,
            workload=workload,
            precision_recall=score_heavy_hitter(app, population).as_dict(),
        )

    mix = FlowMixWorkload(
        testbed.topo.hosts["h1"], testbed.topo.hosts["h2"].ip,
        link_capacity_pps=LINK_CAPACITY_PPS, num_flows=num_flows,
        heavy_fraction=heavy_fraction, seed=seed,
    )
    mix.launch()
    testbed.sim.run(duration)
    app.finalize(duration)

    heavy_flow = mix.heavy_flows[0]
    heavy_frequency = mapper.frequency_of(heavy_flow)
    mouse_frequencies = {
        mapper.frequency_of(spec.flow) for spec in mix.specs[1:]
    } - {heavy_frequency}
    flagged = app.heavy_frequencies()
    return Fig4ABResult(
        heavy_flow=heavy_flow,
        heavy_frequency=heavy_frequency,
        alerts=list(app.alerts),
        heavy_detected=heavy_frequency in flagged,
        false_positive_frequencies=flagged & mouse_frequencies,
        per_interval_heavy_counts=app.counter.count_history(heavy_frequency),
        with_song=with_song,
    )


@dataclass
class Fig4CDResult(Result):
    """Port-scan run outcome."""

    alerts: list[ScanAlert]
    scan_detected: bool
    ports_heard: list[int]
    #: Mel spectrogram over the scan window: (times, centers_hz, mags).
    spectrogram: tuple[np.ndarray, np.ndarray, np.ndarray]
    #: Per-frame dominant frequency — the "clear logarithmic line".
    dominant_track_hz: np.ndarray
    with_song: bool
    workload: str | None = None
    #: Ground-truth precision/recall — workload-driven runs only.
    precision_recall: dict | None = None

    def rows(self):
        title = _condition(self.with_song, self.workload)
        return [(f"Fig 4c/d ({title}): port scan detection", [
            ("scan detected", self.scan_detected),
            ("ports heard", len(self.ports_heard)),
            ("sweep order preserved",
             self.ports_heard == sorted(self.ports_heard)),
            *precision_recall_note("port scan", self.precision_recall),
        ])]


def port_scan_experiment(
    with_song: bool = False,
    scan_interval: float = 0.11,
    distinct_threshold: int = 5,
    workload: str | None = None,
    workload_flows: int = 64,
) -> Fig4CDResult:
    """Run Figure 4c (``with_song=False``) or 4d (``True``).

    ``workload`` replaces the lone sweeping scanner with a named seeded
    mix (use ``"scan-churn"`` for a campaign buried in benign churn,
    including service traffic on in-band ports) and scores the detector
    against campaign ground truth.
    """
    testbed = build_testbed("single", plan_guard=40.0)
    allocation = testbed.plan.allocate("s1", len(SCAN_PORTS))
    mapper = PortToneMapper(allocation, SCAN_PORTS)
    PortScanEmitter(testbed.topo.switches["s1"], testbed.agents["s1"], mapper)
    app = PortScanDetectorApp(testbed.controller, mapper,
                              distinct_threshold=distinct_threshold)
    duration = scan_interval * len(SCAN_PORTS) + 2.0
    if with_song:
        song = SongNoise(seed=2018, level_db=55.0).render(duration)
        testbed.channel.add_noise(song, loop=True)
    testbed.controller.start()

    population = None
    if workload is not None:
        spec = build_workload(workload, num_flows=workload_flows, seed=3,
                              duration=duration)
        population = spec.build().retarget(testbed.topo.hosts["h2"].ip)
        driver = VectorizedFlowDriver(
            testbed.sim, population,
            HostSink(testbed.topo.hosts["h1"], population), stop=duration,
        )
        driver.launch()
    else:
        scan = PortScanSource(testbed.topo.hosts["h1"],
                              testbed.topo.hosts["h2"].ip, SCAN_PORTS,
                              interval=scan_interval)
        scan.launch()
    testbed.sim.run(duration)
    app.finalize(duration)

    capture = testbed.controller.microphone.record(
        testbed.channel, 0.0, scan_interval * len(SCAN_PORTS) + 0.5
    )
    spectrogram = mel_spectrogram(capture, num_filters=48, frame_duration=0.1)
    track = dominant_mel_track(*spectrogram)
    return Fig4CDResult(
        alerts=list(app.alerts),
        scan_detected=app.scan_detected,
        ports_heard=app.ports_heard(),
        spectrogram=spectrogram,
        dominant_track_hz=track,
        with_song=with_song,
        workload=workload,
        precision_recall=(
            score_port_scan(app, population, SCAN_PORTS, duration).as_dict()
            if population is not None else None),
    )
