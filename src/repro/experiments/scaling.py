"""Controller scaling: how many devices can one listener monitor?

The paper's testbed had 7 switches; §5 and §8 speculate about
datacenter scale.  Two resources bound a single MDN controller:

* **spectrum** — the frequency plan's capacity (~1000 slots at 20 Hz);
* **compute** — per-window FFT + matching cost as the watch list grows.

This sweep measures both: N devices (N up to hundreds), each chirping
its own plan frequency within one listening window, against a single
detector watching all N.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..audio import (
    AcousticChannel,
    FrequencyDetector,
    Microphone,
    Position,
    ToneSpec,
)
from ..core import FrequencyPlan


@dataclass
class ScalePoint:
    """One device-count measurement."""

    num_devices: int
    num_active: int           #: devices that actually chirped this window
    recall: float             #: fraction of active devices heard
    false_positives: int      #: inactive plan slots reported
    detect_ms: float          #: detector wall time for the window
    plan_utilization: float   #: fraction of plan capacity consumed
    render_ms: float = 0.0    #: synthesis wall time for the window


def monitoring_scale_sweep(
    device_counts: tuple[int, ...] = (7, 25, 50, 100, 200),
    active_fraction: float = 0.5,
    window_duration: float = 0.3,
    guard_hz: float = 20.0,
    level_db: float = 68.0,
    seed: int = 13,
) -> list[ScalePoint]:
    """Sweep monitored-device count; half the devices chirp per window.

    All devices share one plan (one frequency each); active devices
    start their tones at staggered offsets inside the window, like real
    unsynchronized chirpers.
    """
    if not 0 < active_fraction <= 1:
        raise ValueError("active_fraction must be in (0, 1]")
    results = []
    for count in device_counts:
        plan = FrequencyPlan(low_hz=400.0,
                             high_hz=400.0 + guard_hz * (count + 2),
                             guard_hz=guard_hz)
        frequencies = [
            plan.allocate(f"device{index}", 1).frequency_for(0)
            for index in range(count)
        ]
        rng = np.random.default_rng(seed + count)
        num_active = max(1, int(count * active_fraction))
        active = set(rng.choice(count, size=num_active, replace=False))

        channel = AcousticChannel()
        for index in sorted(active):
            offset = float(rng.uniform(0.0, window_duration * 0.2))
            channel.play_tone(
                offset,
                ToneSpec(frequencies[index], window_duration, level_db),
                Position(0.5 + 0.01 * index, 0.0, 0.0),
            )
        microphone = Microphone(Position(), seed=seed)
        with obs.span("scaling.render", devices=count):
            start = time.perf_counter()
            window = microphone.record(
                channel, window_duration * 0.25, window_duration * 1.05
            )
            render_s = time.perf_counter() - start
        detector = FrequencyDetector(frequencies)
        with obs.span("scaling.detect", devices=count):
            start = time.perf_counter()
            events = detector.detect(window)
            elapsed = time.perf_counter() - start

        heard = {event.frequency for event in events}
        active_frequencies = {frequencies[index] for index in active}
        recall = len(heard & active_frequencies) / len(active_frequencies)
        results.append(ScalePoint(
            num_devices=count,
            num_active=num_active,
            recall=recall,
            false_positives=len(heard - active_frequencies),
            detect_ms=elapsed * 1000.0,
            plan_utilization=count / plan.capacity,
            render_ms=render_s * 1000.0,
        ))
    return results
