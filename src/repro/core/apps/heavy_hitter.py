"""Heavy-hitter detection by ear: Section 5, Figure 4a–b.

Switch side: "we hash a flow tuple defined by source port, destination
port, source IP, destination IP and protocol type and map it to a given
frequency" — each forwarded packet triggers a tone for its flow's
bucket (rate-limited per bucket; the speaker could not keep up with
per-packet tones at line rate, and the detector only needs *counts per
interval*).

Controller side: "recognize when a sound with a similar frequency is
played more than a threshold in a given time interval".
"""

from __future__ import annotations

from dataclasses import dataclass

from ...net.packet import FlowKey, Packet
from ...net.switch import Switch
from ..agent import MusicAgent
from ..controller import MDNController
from ..frequency_plan import Allocation
from ..telemetry import ToneCounter


class FlowToneMapper:
    """The shared flow→frequency mapping.

    ``frequency = allocation[stable_hash(flow) % len(allocation)]``.
    Both halves hold the same allocation, so a heard tone identifies a
    hash bucket (collisions are possible, exactly as in any sketch).
    """

    def __init__(self, allocation: Allocation) -> None:
        if len(allocation) < 1:
            raise ValueError("allocation must hold at least one frequency")
        self.allocation = allocation

    def bucket_of(self, flow: FlowKey) -> int:
        """The hash bucket a flow sounds from."""
        return flow.stable_hash() % len(self.allocation)

    def frequency_of(self, flow: FlowKey) -> float:
        return self.allocation.frequency_for(self.bucket_of(flow))


class HeavyHitterEmitter:
    """Switch-side half: one tone per flow bucket per emission period.

    Parameters
    ----------
    emission_period:
        Minimum spacing between tones of the same bucket.  With the
        default 100 ms, a bucket can sound at most 10 times per second
        — a flow pushing continuously rings its bucket every period,
        while a mouse flow rings it only when it actually sends.
    """

    def __init__(
        self,
        switch: Switch,
        agent: MusicAgent,
        mapper: FlowToneMapper,
        emission_period: float = 0.1,
        tone_duration: float = 0.05,
        tone_level_db: float = 70.0,
    ) -> None:
        if emission_period <= 0:
            raise ValueError("emission_period must be positive")
        self.switch = switch
        self.agent = agent
        self.mapper = mapper
        self.emission_period = emission_period
        self.tone_duration = tone_duration
        self.tone_level_db = tone_level_db
        #: Per-bucket rate-limit state, keyed by bucket index.
        self._last_emission: dict[int, float] = {}
        self.tones_requested = 0
        switch.on_forward(self._on_forward)

    def _on_forward(self, packet: Packet, in_port: int, out_port: int) -> None:
        bucket = self.mapper.bucket_of(packet.flow)
        now = self.switch.sim.now
        last = self._last_emission.get(bucket)
        if last is not None and now - last < self.emission_period:
            return
        self._last_emission[bucket] = now
        self.tones_requested += 1
        self.agent.play(self.mapper.allocation.frequency_for(bucket),
                        self.tone_duration, self.tone_level_db)


@dataclass(frozen=True)
class HeavyHitterAlert:
    """A bucket flagged as heavy in one interval."""

    interval_start: float
    frequency: float
    count: int


class HeavyHitterDetectorApp:
    """Controller-side half: per-interval tone counts + threshold rule.

    Parameters
    ----------
    interval:
        Measurement interval, seconds.
    count_threshold:
        A bucket heard in strictly more than this many capture windows
        per interval is declared heavy.  Counting *windows of presence*
        (not onsets) matches the paper's rule — "a sound with a similar
        frequency is played more than a threshold in a given time
        interval" — and is robust to back-to-back tones merging: a
        saturating flow keeps its bucket ringing in ~every window
        (~10/s at the default 100 ms listen interval), while a mouse
        flow's occasional tone covers only one or two windows.
    """

    def __init__(
        self,
        controller: MDNController,
        mapper: FlowToneMapper,
        interval: float = 1.0,
        count_threshold: int = 5,
    ) -> None:
        self.controller = controller
        self.mapper = mapper
        self.interval = interval
        self.count_threshold = count_threshold
        self.counter = ToneCounter(interval)
        self.alerts: list[HeavyHitterAlert] = []
        #: Scan cursor over ``counter.closed``: every closed interval
        #: is inspected exactly once, keeping ``_scan_closed`` O(new
        #: intervals) per window instead of O(total run length) — the
        #: full rescan (plus its ever-growing dedup set) was quadratic
        #: over the run and fatal under million-flow workloads.
        self._scan_cursor = 0
        frequencies = list(mapper.allocation.frequencies)
        controller.watch(frequencies, on_detection=self.counter.observe)
        controller.on_window(self._on_window)

    def _on_window(self, events, time: float) -> None:
        # Rolling the counter forward on every window closes intervals
        # even when no tones arrive.
        self.counter.flush(time)
        self._scan_closed()

    def finalize(self, now: float) -> None:
        """Close the trailing partial interval and apply the rule to it
        — call once when the run ends, or onsets from the final
        sub-interval are silently dropped."""
        self.counter.flush(now, close_partial=True)
        self._scan_closed()

    def _scan_closed(self) -> None:
        closed = self.counter.closed
        for interval in closed[self._scan_cursor:]:
            for frequency, count in sorted(interval.counts.items()):
                if count > self.count_threshold:
                    self.alerts.append(
                        HeavyHitterAlert(interval.start, frequency, count)
                    )
        self._scan_cursor = len(closed)

    def heavy_frequencies(self) -> set[float]:
        """All buckets ever flagged heavy."""
        return {alert.frequency for alert in self.alerts}

    def is_flow_heavy(self, flow: FlowKey) -> bool:
        """Was this flow's bucket flagged? (Subject to hash collisions,
        like any sketch-based detector.)"""
        return self.mapper.frequency_of(flow) in self.heavy_frequencies()
