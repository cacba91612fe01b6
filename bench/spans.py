"""Outside-in layer tracing for the benchmark.

The program under test is never edited: :func:`instrument` replaces a
fixed set of public methods with wrappers that record a span around the
original call.  Only traced child processes call it, so untraced runs
execute the program's own code objects.

A span is ``(key, start, end, parent)`` held in flat arrays, one batch
per timed rep.  Its *self time* is its duration minus the union of its
children's intervals (:func:`self_times`), so self times of every span
in a rep add up to the rep's wall time and nothing is counted twice.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

#: Every span the benchmark records, root first.
SPANS = (
    "bench.rep",
    "sim.run",
    "sim.event",
    "controller.window",
    "devices.record",
    "agent.play",
    "channel.render",
    "channel.play_tone",
    "channel.prune",
    "detector.detect",
    "net.host_send",
    "net.link_send",
    "net.switch",
    "workload.build",
    "workload.departures",
    "workload.sink",
    "telemetry.dispatch",
    "telemetry.finalize",
    "fleet.run",
    "fleet.merge",
)

#: Inclusive-duration percentiles reported per span, in microseconds.
PERCENTILES = {
    "channel.render": (50, 99),
    "detector.detect": (50, 90, 99),
    "controller.window": (50, 99),
    "devices.record": (99,),
    "sim.event": (99,),
}

#: Per-layer metrics that are not per-span: name -> (unit, better).
COUNTS = {
    "sim.events": ("count", "lower"),
    "channel.memo_hit_ratio": ("ratio", "higher"),
    "channel.tones_live_max": ("count", "lower"),
    "detector.events_per_window": ("count", "lower"),
    "net.packets": ("count", "lower"),
    "net.drops": ("count", "lower"),
    "net.queue_peak": ("count", "lower"),
    "workload.packets": ("count", "lower"),
    "telemetry.events": ("count", "lower"),
    "fleet.busy_ratio": ("ratio", "higher"),
    "fleet.straggler_ratio": ("ratio", "lower"),
    "fleet.report_kb": ("kB", "lower"),
    "fleet.shard_wall_s_max": ("s", "lower"),
    "residual.share": ("ratio", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def layer_metric_units() -> dict[str, tuple[str, str]]:
    """All 84 per-layer metric names -> (unit, better)."""
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = ("count", "lower")
        units[f"{span}.self_ms"] = ("ms", "lower")
        units[f"{span}.share"] = ("ratio", "lower")
    for span, quantiles in PERCENTILES.items():
        for q in quantiles:
            units[f"{span}.p{q}_us"] = ("us", "lower")
    units.update(COUNTS)
    return units


class Tracer:
    """Records spans while a timed rep is open; idle otherwise."""

    def __init__(self) -> None:
        self.active = False
        #: Interned span keys: ``(span, site)``; ``site`` is the
        #: callback ``__qualname__`` for ``sim.event``, else ``""``.
        self.keys: list[tuple[str, str]] = []
        self._key_ids: dict[tuple[str, str], int] = {}
        #: Counts taken at span boundaries (memo hits, events...).
        self.counts: dict[str, float] = defaultdict(float)
        self._reset()

    def _reset(self) -> None:
        self.key = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []

    def key_id(self, span: str, site: str = "") -> int:
        key = (span, site)
        found = self._key_ids.get(key)
        if found is None:
            found = self._key_ids[key] = len(self.keys)
            self.keys.append(key)
        return found

    def begin(self, key: int) -> int:
        index = len(self.key)
        self.key.append(key)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def open_rep(self) -> int:
        """Start recording a rep; returns its ``bench.rep`` span."""
        self._reset()
        self.counts = defaultdict(float)
        self.active = True
        return self.begin(self.key_id("bench.rep"))

    def close_rep(self, index: int) -> "RepSpans":
        """Stop recording and hand over the rep's spans."""
        self.finish(index)
        self.active = False
        spans = RepSpans(
            keys=list(self.keys),
            key=np.frombuffer(self.key, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int32).copy(),
            counts=dict(self.counts),
        )
        self._reset()
        return spans

    def wrap(self, fn, span: str, before=None, after=None):
        """``fn`` wrapped in a ``span``; ``before(*args)`` runs ahead of
        the call and its value reaches ``after(state, result, *args)``."""
        key = self.key_id(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            state = before(*args) if before is not None else None
            index = self.begin(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(index)
            if after is not None:
                after(state, result, *args)
            return result

        return traced

    def event(self, callback):
        """A sim callback wrapped in a ``sim.event`` span keyed by its
        ``__qualname__``."""
        site = getattr(callback, "__qualname__", None) or type(callback).__name__
        key = self.key_id("sim.event", site)

        def event(*args):
            if not self.active:
                return callback(*args)
            index = self.begin(key)
            try:
                return callback(*args)
            finally:
                self.finish(index)

        return event


class RepSpans:
    """One timed rep's spans as numpy columns."""

    def __init__(self, keys, key, start, end, parent, counts) -> None:
        self.keys = keys
        self.key = key
        self.start = start
        self.end = end
        self.parent = parent
        self.counts = counts

    def __len__(self) -> int:
        return len(self.key)

    @property
    def wall(self) -> float:
        return float(self.end[0] - self.start[0])

    def span_ids(self) -> np.ndarray:
        """Each span's position in :data:`SPANS`."""
        lookup = np.array([SPANS.index(span) for span, _site in self.keys])
        return lookup[self.key]


def union_length(starts, ends, lo: float, hi: float) -> float:
    """Length of the union of ``[start, end)`` intervals clipped to
    ``[lo, hi)``."""
    total = 0.0
    reach = lo
    for start, end in sorted(zip(starts, ends)):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals.

    Children of one call stack never overlap, so the covered time is a
    plain per-parent sum; a parent whose sorted children do overlap is
    recomputed with an exact interval union.
    """
    n = len(start)
    duration = end - start
    child = np.nonzero(parent >= 0)[0]
    covered = np.bincount(parent[child], weights=duration[child], minlength=n)
    order = child[np.lexsort((start[child], parent[child]))]
    same_parent = parent[order][1:] == parent[order][:-1]
    overlaps = same_parent & (start[order][1:] < end[order][:-1])
    # A child sticking out of its parent also needs clipping.
    outside = child[(start[child] < start[parent[child]])
                    | (end[child] > end[parent[child]])]
    for p in set(parent[order][1:][overlaps].tolist()) | set(parent[outside].tolist()):
        kids = child[parent[child] == p]
        covered[p] = union_length(start[kids].tolist(), end[kids].tolist(),
                                  float(start[p]), float(end[p]))
    return duration - covered


def rep_layer_metrics(spans: RepSpans) -> tuple[dict, dict]:
    """Per-layer numbers for one rep, and the ``sim.event`` self time
    (ms) per callback ``__qualname__``."""
    ids = spans.span_ids()
    own = self_times(spans.start, spans.end, spans.parent)
    duration = spans.end - spans.start
    wall = spans.wall
    calls = np.bincount(ids, minlength=len(SPANS))
    self_s = np.bincount(ids, weights=own, minlength=len(SPANS))
    metrics: dict[str, float] = {}
    for index, span in enumerate(SPANS):
        metrics[f"{span}.calls"] = float(calls[index])
        metrics[f"{span}.self_ms"] = float(self_s[index]) * 1e3
        metrics[f"{span}.share"] = float(self_s[index]) / wall if wall else 0.0
    for span, quantiles in PERCENTILES.items():
        values = duration[ids == SPANS.index(span)] * 1e6
        for q in quantiles:
            metrics[f"{span}.p{q}_us"] = (
                float(np.percentile(values, q)) if len(values) else 0.0
            )
    counts = spans.counts
    renders = counts.get("channel.memo_hits", 0) + counts.get("channel.memo_misses", 0)
    detects = metrics["detector.detect.calls"]
    metrics["sim.events"] = metrics["sim.event.calls"]
    metrics["channel.memo_hit_ratio"] = (
        counts.get("channel.memo_hits", 0) / renders if renders else 0.0
    )
    metrics["channel.tones_live_max"] = counts.get("channel.tones_live_max", 0.0)
    metrics["detector.events_per_window"] = (
        counts.get("detector.events", 0) / detects if detects else 0.0
    )
    metrics["workload.packets"] = counts.get("workload.packets", 0.0)
    metrics["telemetry.events"] = counts.get("telemetry.events", 0.0)
    metrics["residual.share"] = (
        metrics["bench.rep.share"] + metrics["sim.event.share"]
    )
    per_key = np.bincount(spans.key, weights=own, minlength=len(spans.keys))
    sites = {
        site: float(per_key[key]) * 1e3
        for key, (span, site) in enumerate(spans.keys) if span == "sim.event"
    }
    return metrics, sites


def layer_of(span: str) -> str:
    """The thread track a span lands on in the exported Chrome trace."""
    return "devices" if span == "agent.play" else span.split(".")[0]


def chrome_trace(workload: str, spans: RepSpans, limit: int) -> dict:
    """Chrome Trace Event JSON for the first traced rep: one process
    track for the workload, one thread track per layer.  Keeps the
    first ``limit`` spans in start order."""
    layers = sorted({layer_of(span) for span in SPANS})
    tids = {layer: index + 1 for index, layer in enumerate(layers)}
    events = [{"ph": "M", "name": "process_name", "pid": 1,
               "args": {"name": workload}}]
    events += [{"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
                "args": {"name": layer}} for layer, tid in tids.items()]
    origin = float(spans.start[0]) if len(spans) else 0.0
    kept = min(len(spans), limit)
    for index in range(kept):
        span, site = spans.keys[spans.key[index]]
        events.append({
            "ph": "X",
            "name": site or span,
            "cat": span,
            "pid": 1,
            "tid": tids[layer_of(span)],
            "ts": round((float(spans.start[index]) - origin) * 1e6, 3),
            "dur": round(float(spans.end[index] - spans.start[index]) * 1e6, 3),
            "args": {"rep": 0, "span": index,
                     "parent": int(spans.parent[index])},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"workload": workload, "spans": len(spans),
                          "spans_dropped": len(spans) - kept}}


def write_chrome_trace(path: Path, trace: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace))


def instrument(tracer: Tracer) -> None:
    """Wrap the public layer boundaries of ``repro`` in spans.

    Process-wide and permanent: call it once, in a child process that
    only runs traced reps.  Pool workers forked from that process stop
    recording, because their spans could never reach this process.
    """
    from repro import fleet
    from repro.audio.channel import AcousticChannel
    from repro.audio.detector import FrequencyDetector
    from repro.audio.devices import Microphone
    from repro.core.agent import MusicAgent
    from repro.core.apps import HeavyHitterDetectorApp, PortScanDetectorApp
    from repro.core.controller import MDNController
    from repro.core.telemetry import ToneEventBus
    from repro.net.flowpop import FlowPopulation
    from repro.net.host import Host
    from repro.net.link import LinkDirection
    from repro.net.sim import Simulator
    from repro.net.switch import Switch
    from repro.net.workload import HostSink, PresenceSink, WorkloadSpec
    from repro.obs import MetricsRegistry

    def count(name, amount):
        tracer.counts[name] += amount

    def memo_before(channel, *_args):
        return channel.render_cache_hits

    def memo_after(hits, _result, channel, *_args):
        hit = channel.render_cache_hits > hits
        count("channel.memo_hits" if hit else "channel.memo_misses", 1)

    def tones_live(channel, *_args):
        live = len(channel.scheduled_tones)
        if live > tracer.counts["channel.tones_live_max"]:
            tracer.counts["channel.tones_live_max"] = live

    plain = [
        (Simulator, "run", "sim.run", None, None),
        (Microphone, "record", "devices.record", None, None),
        (MusicAgent, "play", "agent.play", None, None),
        (AcousticChannel, "render_at", "channel.render",
         memo_before, memo_after),
        (AcousticChannel, "play_tone", "channel.play_tone", None, None),
        (AcousticChannel, "prune", "channel.prune", tones_live, None),
        (FrequencyDetector, "detect", "detector.detect", None,
         lambda _s, events, *_a: count("detector.events", len(events))),
        (Host, "send_packet", "net.host_send", None, None),
        (LinkDirection, "send", "net.link_send", None, None),
        (Switch, "receive", "net.switch", None, None),
        (WorkloadSpec, "build", "workload.build", None, None),
        (FlowPopulation, "departures_between", "workload.departures", None,
         lambda _s, result, *_a: count("workload.packets", len(result[0]))),
        (HostSink, "emit_batch", "workload.sink", None, None),
        (PresenceSink, "emit_batch", "workload.sink", None, None),
        (ToneEventBus, "dispatch", "telemetry.dispatch", None,
         lambda _s, delivered, *_a: count("telemetry.events", delivered)),
        (HeavyHitterDetectorApp, "finalize", "telemetry.finalize", None, None),
        (PortScanDetectorApp, "finalize", "telemetry.finalize", None, None),
        (MetricsRegistry, "merge", "fleet.merge", None, None),
    ]
    for cls, name, span, before, after in plain:
        setattr(cls, name, tracer.wrap(getattr(cls, name), span, before, after))

    schedule_at = Simulator.schedule_at

    def traced_schedule_at(self, time, callback, *args):
        if tracer.active:
            callback = tracer.event(callback)
        return schedule_at(self, time, callback, *args)

    every = Simulator.every

    def traced_every(self, interval, callback, *args, **kwargs):
        if isinstance(getattr(callback, "__self__", None), MDNController):
            callback = tracer.wrap(callback, "controller.window")
        return every(self, interval, callback, *args, **kwargs)

    Simulator.schedule_at = functools.wraps(schedule_at)(traced_schedule_at)
    Simulator.every = functools.wraps(every)(traced_every)
    fleet.run_fleet = tracer.wrap(fleet.run_fleet, "fleet.run")

    def stop_in_child() -> None:
        tracer.active = False
        tracer._reset()

    os.register_at_fork(after_in_child=stop_in_child)
