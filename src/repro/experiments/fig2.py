"""Figure 2 experiments: testbed characterization.

* **Fig 2a** — FFT of audio from five switches playing simultaneously:
  one identifiable spectral peak per switch.
* **Fig 2b** — CDF of FFT processing time for ~50 ms capture windows;
  the paper reports ~90% of samples processed in <= 0.35 ms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..audio import (
    AcousticChannel,
    FrequencyDetector,
    Microphone,
    Position,
    Speaker,
    SpectrumAnalyzer,
    ToneSpec,
    sine_tone,
    white_noise,
)
from ..artifact import WALL_TIME, Result
from ..core import FrequencyPlan
from .rigs import SPEAKER_RING


@dataclass
class Fig2AResult(Result):
    """Per-switch attribution of the simultaneous-tone spectrum."""

    played: dict[str, float]            #: switch -> frequency played
    detected: dict[str, float]          #: switch -> measured frequency
    levels_db: dict[str, float]         #: switch -> received level
    spectrum_frequencies: np.ndarray
    spectrum_magnitudes: np.ndarray

    @property
    def all_identified(self) -> bool:
        return set(self.detected) == set(self.played)

    def rows(self):
        rows = [("switch", "played Hz", "measured Hz", "level dB")]
        rows += [(name, f"{self.played[name]:.0f}",
                  f"{self.detected.get(name, float('nan')):.1f}",
                  f"{self.levels_db.get(name, float('nan')):.1f}")
                 for name in sorted(self.played)]
        rows.append(f"all identified: {self.all_identified}")
        return [("Fig 2a: simultaneous switch identification", rows)]


def multiswitch_fft(
    num_switches: int = 5,
    tone_level_db: float = 72.0,
    noise_level_db: float | None = None,
    seed: int = 2,
) -> Fig2AResult:
    """Run the Figure 2a experiment.

    ``num_switches`` switches, each with its own frequency block from a
    20 Hz-guard plan, all play at once; a single microphone capture is
    analyzed and every peak attributed back to its switch.
    """
    channel = AcousticChannel()
    plan = FrequencyPlan(low_hz=600.0, guard_hz=20.0)
    played: dict[str, float] = {}
    for index in range(num_switches):
        name = f"switch{index}"
        allocation = plan.allocate(name, 4)
        frequency = allocation.frequency_for(0)
        played[name] = frequency
        speaker = Speaker(SPEAKER_RING[index % len(SPEAKER_RING)])
        speaker.play(channel, 0.0, ToneSpec(frequency, 0.5, tone_level_db))
    if noise_level_db is not None:
        channel.add_noise(
            white_noise(1.0, noise_level_db, rng=np.random.default_rng(seed)),
            Position(1.5, 1.5, 0.0),
        )
    microphone = Microphone(Position(), seed=seed)
    window = microphone.record(channel, 0.1, 0.45)
    detector = FrequencyDetector(plan.all_frequencies())
    events = detector.detect(window)

    detected: dict[str, float] = {}
    levels: dict[str, float] = {}
    for event in events:
        owner = plan.owner_of(event.frequency)
        if owner is not None:
            detected[owner] = event.measured_frequency
            levels[owner] = event.level_db
    spectrum = SpectrumAnalyzer(zero_pad_factor=2).analyze(window)
    return Fig2AResult(
        played, detected, levels, spectrum.frequencies, spectrum.magnitudes
    )


@dataclass
class Fig2BResult(Result):
    """The FFT processing-time distribution."""

    #: Individual window timings.
    timings_ms: np.ndarray = field(metadata=WALL_TIME)
    window_duration_ms: float

    def percentile_ms(self, q: float) -> float:
        return float(np.percentile(self.timings_ms, q))

    def cdf_points(self, qs=(10, 25, 50, 75, 90, 95, 99)) -> list[tuple[int, float]]:
        """(percentile, milliseconds) pairs — the Figure 2b curve."""
        return [(q, self.percentile_ms(q)) for q in qs]

    def rows(self):
        rows = [("percentile", "ms")]
        rows += [(f"p{q}", f"{v:.4f}") for q, v in self.cdf_points()]
        return [("Fig 2b: FFT processing-time CDF (paper: p90 <= 0.35 ms)",
                 rows)]


def fft_latency_cdf(
    num_samples: int = 1000,
    window_duration: float = 0.05,
    sample_rate: int = 16_000,
    seed: int = 3,
) -> Fig2BResult:
    """Run the Figure 2b measurement: time the full analysis pipeline
    (FFT + peak extraction input) on ``num_samples`` windows of
    ``window_duration`` seconds.

    This is a genuine wall-clock measurement of *this* machine, just as
    the paper's was of theirs; EXPERIMENTS.md records both.
    """
    rng = np.random.default_rng(seed)
    analyzer = SpectrumAnalyzer()
    tone = sine_tone(1000.0, window_duration, 65.0, sample_rate)
    noise = white_noise(window_duration, 40.0, sample_rate, rng)
    window = tone.mix(noise)
    # Warm-up: exclude numpy's first-call overhead, as any real
    # long-running listener would.
    for _ in range(10):
        analyzer.timed_analyze(window)
    timings = np.array(
        [analyzer.timed_analyze(window)[1] for _ in range(num_samples)]
    )
    return Fig2BResult(timings * 1000.0, window_duration * 1000.0)
