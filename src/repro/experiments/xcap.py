"""Detector capacity sweeps (XCAP in DESIGN.md).

§5: "we could distinguish up to 1000 distinct frequencies played
simultaneously" — how does detection accuracy scale with the number of
concurrent tones, where does the 20 Hz guard break down, and how do
room reflections affect it?
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..audio import (
    AcousticChannel,
    FrequencyDetector,
    Microphone,
    Position,
    ToneSpec,
)
from ..core import FrequencyPlan


@dataclass
class ConcurrencyPoint:
    """Detection accuracy for one number of simultaneous tones."""

    num_tones: int
    recall: float          #: fraction of played tones detected
    precision: float       #: fraction of detections that were played


def concurrency_sweep(
    tone_counts: tuple[int, ...] = (1, 5, 10, 25, 50, 100),
    guard_hz: float = 20.0,
    window_duration: float = 0.3,
    level_db: float = 70.0,
    seed: int = 5,
) -> list[ConcurrencyPoint]:
    """Play N simultaneous grid tones and measure recall/precision.

    All tones are emitted at the plan grid and listened for with the
    full plan watch list, so false positives are crosstalk onto
    unplayed slots.
    """
    results = []
    for num_tones in tone_counts:
        plan = FrequencyPlan(low_hz=400.0,
                             high_hz=400.0 + guard_hz * (max(tone_counts) * 2),
                             guard_hz=guard_hz)
        allocation = plan.allocate("all", max(tone_counts) * 2)
        rng = np.random.default_rng(seed + num_tones)
        slots = rng.choice(len(allocation), size=num_tones, replace=False)
        played = {allocation.frequency_for(int(slot)) for slot in slots}

        channel = AcousticChannel()
        for frequency in played:
            channel.play_tone(
                0.0, ToneSpec(frequency, window_duration + 0.1, level_db),
                Position(0.7, 0.0, 0.0),
            )
        window = Microphone(Position(), seed=seed).record(
            channel, 0.05, 0.05 + window_duration
        )
        detector = FrequencyDetector(list(allocation.frequencies))
        detected = {event.frequency for event in detector.detect(window)}

        true_positives = len(detected & played)
        recall = true_positives / len(played)
        precision = true_positives / len(detected) if detected else 1.0
        results.append(ConcurrencyPoint(num_tones, recall, precision))
    return results


@dataclass
class GuardPoint:
    """Separability of two tones at one guard spacing."""

    guard_hz: float
    both_detected: bool


def guard_spacing_sweep(
    spacings: tuple[float, ...] = (5.0, 10.0, 15.0, 20.0, 30.0, 50.0),
    window_duration: float = 0.2,
    level_db: float = 65.0,
) -> list[GuardPoint]:
    """Find the separability floor: two equal tones ``guard`` Hz apart.

    The paper's empirical answer was ~20 Hz; the detector's window
    length sets ours.
    """
    results = []
    for guard in spacings:
        base = 1000.0
        channel = AcousticChannel()
        for frequency in (base, base + guard):
            channel.play_tone(
                0.0, ToneSpec(frequency, window_duration + 0.1, level_db),
                Position(0.7, 0.0, 0.0),
            )
        window = Microphone(Position(), seed=6).record(
            channel, 0.05, 0.05 + window_duration
        )
        detector = FrequencyDetector([base, base + guard],
                                     tolerance_hz=max(guard / 2.0, 2.0))
        detected = {event.frequency for event in detector.detect(window)}
        results.append(GuardPoint(guard, detected == {base, base + guard}))
    return results


@dataclass
class MultipathPoint:
    """Detection accuracy under one echo severity."""

    echo_loss_db: float
    recall: float
    false_positives: int


def multipath_sweep(
    echo_losses_db: tuple[float, ...] = (20.0, 12.0, 6.0, 3.0),
    num_tones: int = 8,
    window_duration: float = 0.25,
    seed: int = 9,
) -> list[MultipathPoint]:
    """Detection accuracy as room reflections strengthen.

    Two early-reflection taps (13 ms and 31 ms extra path) at the given
    loss relative to the direct path; 8 simultaneous grid tones; recall
    and phantom detections measured.  Real rooms sit around 6–15 dB for
    strong early reflections.
    """
    results = []
    for loss in echo_losses_db:
        channel = AcousticChannel(
            echo_taps=((0.013, loss), (0.031, loss + 5.0))
        )
        plan = FrequencyPlan(low_hz=600.0, guard_hz=40.0)
        allocation = plan.allocate("all", num_tones * 2)
        rng = np.random.default_rng(seed)
        slots = rng.choice(len(allocation), size=num_tones, replace=False)
        played = {allocation.frequency_for(int(slot)) for slot in slots}
        for frequency in played:
            channel.play_tone(
                0.0, ToneSpec(frequency, window_duration + 0.1, 68.0),
                Position(0.7, 0.0, 0.0),
            )
        window = Microphone(Position(), seed=seed).record(
            channel, 0.05, 0.05 + window_duration
        )
        detector = FrequencyDetector(list(allocation.frequencies))
        detected = {event.frequency for event in detector.detect(window)}
        recall = len(detected & played) / len(played)
        results.append(MultipathPoint(loss, recall,
                                      len(detected - played)))
    return results

