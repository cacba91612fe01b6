"""Figure 5 experiments: music-defined traffic engineering.

* **Fig 5a/5b** — load balancing on the rhombus: queue length evolution
  and the chirp spectrogram around the congestion tone.
* **Fig 5c/5d** — queue-size monitoring: 500/600/700 Hz tones tracking
  the <25 / 25–75 / >75 packet bands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..artifact import Result
from ..audio import mel_spectrogram
from ..core.apps import (
    BandToneMap,
    FIG5_BAND_FREQUENCIES,
    LoadBalancerApp,
    QueueChirper,
    QueueMonitorApp,
    SplitRule,
)
from ..net import (
    HostSink,
    Match,
    OnOffSource,
    RampSource,
    TimeSeries,
    VectorizedFlowDriver,
    build_workload,
)
from .rigs import build_testbed


@dataclass
class Fig5ABResult(Result):
    """Load-balancing run outcome."""

    queue_series: TimeSeries
    split_time: float | None
    peak_queue_before_split: float
    final_queue: float
    bottom_path_packets: float
    tone_log: list[tuple[float, str, str]]
    spectrogram: tuple[np.ndarray, np.ndarray, np.ndarray]
    #: Named background workload mix, if any, and what it emitted.
    workload: str | None = None
    background_packets: int = 0

    @property
    def rebalanced(self) -> bool:
        return self.split_time is not None

    def rows(self):
        series = self.queue_series
        rows = [("t (s)", "queue pkts")]
        rows += [(f"{t:.1f}", int(v))
                 for t, v in zip(series.times[::2], series.values[::2])]
        rows.append(f"split installed at t = {self.split_time:.2f} s "
                    f"(paper run: 3.7 s); final queue {self.final_queue:.0f}")
        if self.workload:
            rows.append(f"background workload {self.workload}: "
                        f"{self.background_packets} packets")
        return [("Fig 5a: queue under ramping load (split on 700 Hz tone)",
                 rows)]


def load_balancing_experiment(
    duration: float = 20.0,
    initial_rate_pps: float = 50.0,
    slope_pps_per_s: float = 60.0,
    max_rate_pps: float = 350.0,
    workload: str | None = None,
    workload_flows: int = 200,
) -> Fig5ABResult:
    """Run Figure 5a–b: ramping source, chirping s_in, split on the
    congestion tone.

    ``workload`` layers a named seeded mix (e.g. ``"mice"``) under the
    ramp as background churn sharing the congested path — the paper's
    clean single-source ramp, made honest.
    """
    testbed = build_testbed("rhombus")
    topo = testbed.topo
    p_top = topo.port_towards("s_in", "s_top")
    p_bottom = topo.port_towards("s_in", "s_bottom")

    allocation = testbed.plan.allocate("s_in", 3)
    tones = BandToneMap.from_frequencies(allocation.frequencies)
    chirper = QueueChirper(testbed.sim, topo.switches["s_in"], p_top,
                           testbed.agents["s_in"], tones)
    app = LoadBalancerApp(
        testbed.controller,
        {"s_in": tones},
        {"s_in": SplitRule("s_in", Match(dst_ip=topo.hosts["h2"].ip),
                           [p_top, p_bottom])},
    )
    testbed.controller.start()

    background = None
    if workload is not None:
        spec = build_workload(workload, num_flows=workload_flows,
                              seed=16, duration=duration)
        population = spec.build().retarget(topo.hosts["h2"].ip)
        background = VectorizedFlowDriver(
            testbed.sim, population,
            HostSink(topo.hosts["h1"], population), stop=duration,
        )
        background.launch()

    ramp = RampSource(topo.hosts["h1"], topo.hosts["h2"].ip, 80,
                      initial_rate_pps=initial_rate_pps,
                      slope_pps_per_s=slope_pps_per_s,
                      max_rate_pps=max_rate_pps)
    ramp.launch()
    testbed.sim.run(duration)

    split_time = app.rebalanced_at.get("s_in")
    before = chirper.queue_series.window(
        0.0, (split_time or duration) + 0.31
    )
    capture_end = min(duration, (split_time or duration) + 3.0)
    capture = testbed.controller.microphone.record(
        testbed.channel, max(0.0, capture_end - 8.0), capture_end
    )
    spectrogram = mel_spectrogram(capture, num_filters=48, frame_duration=0.1)
    return Fig5ABResult(
        queue_series=chirper.queue_series,
        split_time=split_time,
        peak_queue_before_split=before.max(),
        final_queue=chirper.queue_series.final(),
        bottom_path_packets=topo.switches["s_bottom"].packets_forwarded.total,
        tone_log=list(app.tone_log),
        spectrogram=spectrogram,
        workload=workload,
        background_packets=(background.packets_emitted
                            if background is not None else 0),
    )


@dataclass
class Fig5CDResult(Result):
    """Queue-monitoring run outcome."""

    queue_series: TimeSeries
    band_history: list[tuple[float, str]]
    final_band: str | None
    peak_queue: float
    spectrogram: tuple[np.ndarray, np.ndarray, np.ndarray]

    def bands_heard(self) -> list[str]:
        return [band for _time, band in self.band_history]

    def rows(self):
        tone = {"low": "500 Hz", "medium": "600 Hz", "high": "700 Hz"}
        rows = [("t (s)", "tone", "band")]
        rows += [(f"{t:.1f}", tone[band], band)
                 for t, band in self.band_history]
        return [("Fig 5c/d: queue bands by ear", rows)]


def queue_monitor_experiment(
    duration: float = 10.0,
    burst_rate_pps: float = 500.0,
    burst_duration: float = 1.5,
    burst_start: float = 1.0,
) -> Fig5CDResult:
    """Run Figure 5c–d: a traffic burst fills the queue through all
    three bands (500→600→700 Hz) and drains back (…→500 Hz)."""
    testbed = build_testbed("single")
    topo = testbed.topo
    port = topo.port_towards("s1", "h2")
    tones = BandToneMap(
        FIG5_BAND_FREQUENCIES["low"],
        FIG5_BAND_FREQUENCIES["medium"],
        FIG5_BAND_FREQUENCIES["high"],
    )
    chirper = QueueChirper(testbed.sim, topo.switches["s1"], port,
                           testbed.agents["s1"], tones)
    app = QueueMonitorApp(testbed.controller, "s1", tones)
    testbed.controller.start()

    burst = OnOffSource(topo.hosts["h1"], topo.hosts["h2"].ip, 80,
                        rate_pps=burst_rate_pps, on_duration=burst_duration,
                        off_duration=duration * 2, start=burst_start)
    burst.launch()
    testbed.sim.run(duration)

    capture = testbed.controller.microphone.record(testbed.channel, 0.0,
                                                   duration)
    spectrogram = mel_spectrogram(capture, num_filters=48, frame_duration=0.1)
    return Fig5CDResult(
        queue_series=chirper.queue_series,
        band_history=list(app.band_history),
        final_band=app.current_band,
        peak_queue=chirper.queue_series.max(),
        spectrogram=spectrogram,
    )
