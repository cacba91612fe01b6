"""The four benchmark workloads, driven through ``repro``'s public API.

Each workload is a class: constructing it builds the inputs (timed as
set-up), :meth:`run` is the timed call, and :meth:`result` turns what
the run produced into a digest, behaviour metrics and output checks.
Inputs come only from the seed and the size parameters, so every rep of
one seed must produce the same digest.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import statistics
from dataclasses import asdict

from repro import fleet
from repro.core.apps import (
    BandToneMap,
    FlowToneMapper,
    HeavyHitterDetectorApp,
    LoadBalancerApp,
    PortScanDetectorApp,
    PortToneMapper,
    QueueChirper,
    SplitRule,
    score_heavy_hitter,
    score_port_scan,
)
from repro.core.frequency_plan import Allocation
from repro.core.telemetry import ToneEventBus
from repro.experiments.rigs import build_testbed
from repro.experiments.xext16 import NUM_BUCKETS, PRESENCE_PERIOD
from repro.net import (
    BucketPresenceTap,
    HostSink,
    Match,
    PortPresenceTap,
    PresenceSink,
    RampSource,
    Simulator,
    VectorizedFlowDriver,
    build_workload,
)
from repro.net.workload import DEFAULT_SCAN_PORTS
from repro.obs import MetricsRegistry


def digest(payload) -> str:
    """A stable fingerprint of a JSON-able result."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Result:
    """What one rep produced, beyond its wall time."""

    def __init__(self, payload, outcome: dict, checks: dict,
                 counts: dict | None = None) -> None:
        self.digest = digest(payload)
        #: Deterministic behaviour metrics (fail_ratio, lags...).
        self.outcome = outcome
        #: Output checks: name -> passed.
        self.checks = checks
        #: Per-layer numbers read from the program's own counters.
        self.counts = counts or {}


def _onset_lags(metrics: MetricsRegistry) -> dict:
    lags = metrics.get("fleet.onset_lag_ms")
    return {"onset_lag_ms_p50": lags.p50, "onset_lag_ms_p99": lags.p99}


class RoomDense:
    """Fleet rooms at near-ceiling density, run back to back in-process."""

    name = "room-dense"
    reps = 3
    full = {"rooms": 2, "switches": 50, "horizon": 30.0}
    small = {"rooms": 1, "switches": 20, "horizon": 1.0}

    def __init__(self, seed: int, rooms: int, switches: int,
                 horizon: float) -> None:
        self.specs = [
            fleet.RoomSpec(room_id=room, num_switches=switches,
                           fleet_seed=seed, horizon=horizon)
            for room in range(rooms)
        ]
        self.sim_seconds = rooms * horizon

    def run(self) -> None:
        self.reports = [fleet.run_room(spec) for spec in self.specs]

    def result(self) -> Result:
        merged = MetricsRegistry()
        for report in self.reports:
            merged.merge(report.metrics, gauge_policy=fleet.FLEET_GAUGE_POLICY)
        emitted = sum(report.emissions for report in self.reports)
        delivered = sum(report.delivered for report in self.reports)
        outcome = {"fail_ratio": 1.0 - delivered / emitted,
                   **_onset_lags(merged)}
        payload = [report.identity_signature() for report in self.reports]
        return Result(payload, outcome, {})


class FleetPool:
    """A sharded fleet through the process pool."""

    name = "fleet-pool"
    reps = 3
    full = {"rooms": 64, "switches": 20, "horizon": 5.0, "shards": 8,
            "workers": 2}
    small = {"rooms": 2, "switches": 10, "horizon": 0.5, "shards": 2,
             "workers": 2}

    def __init__(self, seed: int, rooms: int, switches: int, horizon: float,
                 shards: int, workers: int) -> None:
        self.spec = fleet.FleetSpec(num_rooms=rooms,
                                    switches_per_room=switches,
                                    seed=seed, horizon=horizon)
        self.shards = shards
        self.workers = workers
        self.sim_seconds = rooms * horizon

    def run(self) -> None:
        self.report = fleet.run_fleet(self.spec, num_shards=self.shards,
                                      backend="process",
                                      workers=self.workers)

    def result(self) -> Result:
        report = self.report
        # Every room of a failed shard counts as fully failed, at the
        # mean emissions of the rooms that ran.
        rooms = len(report.rooms)
        emitted = report.emissions * self.spec.num_rooms / rooms if rooms else 0
        outcome = {
            "fail_ratio": 1.0 - report.delivered / emitted if emitted else 1.0,
            **_onset_lags(report.metrics),
        }
        walls = [shard.wall_s for shard in report.shards]
        counts = {
            "fleet.busy_ratio": sum(walls) / (self.workers * report.wall_s),
            "fleet.straggler_ratio": max(walls) / statistics.median(walls),
            "fleet.report_kb": len(pickle.dumps(report.shards)) / 1024,
            "fleet.shard_wall_s_max": max(walls),
        }
        checks = {"no_shard_failures": report.failures == []}
        return Result(report.identity_signature(), outcome, checks, counts)


class LbPackets:
    """The Fig 5a-b rhombus under packet-level background traffic."""

    name = "lb-packets"
    reps = 3
    full = {"flows": 5000, "duration": 60.0}
    small = {"flows": 2000, "duration": 2.0}

    def __init__(self, seed: int, flows: int, duration: float) -> None:
        testbed = build_testbed("rhombus")
        topo = testbed.topo
        p_top = topo.port_towards("s_in", "s_top")
        p_bottom = topo.port_towards("s_in", "s_bottom")
        tones = BandToneMap.from_frequencies(
            testbed.plan.allocate("s_in", 3).frequencies
        )
        QueueChirper(testbed.sim, topo.switches["s_in"], p_top,
                     testbed.agents["s_in"], tones)
        self.app = LoadBalancerApp(
            testbed.controller, {"s_in": tones},
            {"s_in": SplitRule("s_in", Match(dst_ip=topo.hosts["h2"].ip),
                               [p_top, p_bottom])},
        )
        testbed.controller.start()
        population = build_workload(
            "mice", num_flows=flows, seed=seed, duration=duration
        ).build().retarget(topo.hosts["h2"].ip)
        self.background = VectorizedFlowDriver(
            testbed.sim, population, HostSink(topo.hosts["h1"], population),
            stop=duration,
        )
        self.background.launch()
        RampSource(topo.hosts["h1"], topo.hosts["h2"].ip, 80,
                   initial_rate_pps=50.0, slope_pps_per_s=60.0,
                   max_rate_pps=350.0).launch()
        self.testbed = testbed
        self.sim_seconds = duration

    def run(self) -> None:
        self.testbed.sim.run(self.sim_seconds)

    def result(self) -> Result:
        topo = self.testbed.topo
        h1, h2 = topo.hosts["h1"], topo.hosts["h2"]
        queues = [direction.queue
                  for node in [*topo.switches.values(), *topo.hosts.values()]
                  for direction in node.ports.values()]
        split = self.app.rebalanced_at.get("s_in")
        sent, received = h1.packets_sent.total, h2.packets_received.total
        outcome = {"fail_ratio": 1.0 - received / sent}
        if split is not None:
            outcome["rebalance_s"] = split
        counts = {
            "net.packets": sum(host.packets_sent.total
                               for host in topo.hosts.values()),
            "net.drops": sum(queue.dropped for queue in queues),
            "net.queue_peak": max(queue.peak_length for queue in queues),
        }
        payload = {"split": split, "sent": sent, "received": received,
                   "background": self.background.packets_emitted,
                   "drops": counts["net.drops"]}
        checks = {"rebalanced": split is not None}
        return Result(payload, outcome, checks, counts)


class TelemetryFlows:
    """10^5 flows through the audio-free telemetry path."""

    name = "telemetry-flows"
    reps = 5
    full = {"flows": 100_000, "duration": 20.0}
    small = {"flows": 5_000, "duration": 4.0}

    def __init__(self, seed: int, flows: int, duration: float) -> None:
        self.population = build_workload(
            "scan-churn", num_flows=flows, seed=seed, duration=duration
        ).build()
        buckets = Allocation("bench-hh", tuple(
            1_000.0 + 20.0 * i for i in range(NUM_BUCKETS)
        ))
        ports = Allocation("bench-scan", tuple(
            1_000.0 + 20.0 * (NUM_BUCKETS + i)
            for i in range(len(DEFAULT_SCAN_PORTS))
        ))
        self.bus = ToneEventBus(window=PRESENCE_PERIOD)
        self.heavy = HeavyHitterDetectorApp(self.bus, FlowToneMapper(buckets))
        self.scan = PortScanDetectorApp(
            self.bus, PortToneMapper(ports, DEFAULT_SCAN_PORTS)
        )
        self.sim = Simulator()
        sink = PresenceSink(self.bus, [
            BucketPresenceTap(list(buckets.frequencies), PRESENCE_PERIOD),
            PortPresenceTap(DEFAULT_SCAN_PORTS, list(ports.frequencies),
                            PRESENCE_PERIOD),
        ])
        VectorizedFlowDriver(self.sim, self.population, sink,
                             stop=duration).launch()
        self.sim_seconds = duration

    def run(self) -> None:
        duration = self.sim_seconds
        self.sim.run(duration)
        self.bus.dispatch()
        self.heavy.finalize(duration)
        self.scan.finalize(duration)

    def result(self) -> Result:
        heavy = score_heavy_hitter(self.heavy, self.population)
        scan = score_port_scan(self.scan, self.population,
                               DEFAULT_SCAN_PORTS, self.sim_seconds)
        planted = (heavy.true_positives + heavy.false_negatives
                   + scan.true_positives + scan.false_negatives)
        missed = heavy.false_negatives + scan.false_negatives
        outcome = {"fail_ratio": missed / planted if planted else 0.0}
        payload = {
            "heavy_alerts": [asdict(alert) for alert in self.heavy.alerts],
            "scan_alerts": [asdict(alert) for alert in self.scan.alerts],
            "heavy": heavy.as_dict(),
            "scan": scan.as_dict(),
        }
        checks = {"scan_recall_1": scan.recall == 1.0}
        return Result(payload, outcome, checks)


WORKLOADS = {cls.name: cls
             for cls in (RoomDense, FleetPool, LbPackets, TelemetryFlows)}
