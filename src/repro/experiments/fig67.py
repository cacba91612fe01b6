"""Figure 6 and 7 experiments: server fan failure detection.

* **Fig 6** — mel spectrograms of a server in {datacenter, office} ×
  {fan on, fan off}: the blade-pass harmonics visible while on, gone
  while off, in both rooms.
* **Fig 7** — FFT amplitude-difference traces: on↔on comparisons sit
  near the baseline; on↔off jump; a threshold separates them and fires
  the out-of-band alert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..artifact import Result
from ..audio import SpectrumAnalyzer, mel_spectrogram
from ..core.apps import FanWatchdog
from ..fans import RoomScene, Server, datacenter_scene, office_scene
from ..net import TimeSeries

ROOMS = ("datacenter", "office")


def _scene(room: str, duration: float, server: Server | None) -> RoomScene:
    if room == "datacenter":
        return datacenter_scene(duration=duration, server=server)
    if room == "office":
        return office_scene(duration=duration, server=server)
    raise ValueError(f"unknown room {room!r} (use one of {ROOMS})")


@dataclass
class Fig6Panel:
    """One of the four Figure 6 spectrogram panels."""

    room: str
    fan_on: bool
    spectrogram: tuple[np.ndarray, np.ndarray, np.ndarray]
    blade_pass_hz: float
    blade_line_level_db: float
    noise_floor_db: float

    @property
    def line_prominence_db(self) -> float:
        """How far the fan's strongest line stands above the floor."""
        return self.blade_line_level_db - self.noise_floor_db


def fan_spectrogram_panel(room: str, fan_on: bool,
                          duration: float = 6.0) -> Fig6Panel:
    """Render one Figure 6 panel and measure the blade-pass line."""
    server = Server("target")
    if not fan_on:
        server.fail_all(0.0)
    scene = _scene(room, duration, server)
    capture = scene.capture(1.0, duration - 1.0)
    spectrogram = mel_spectrogram(capture, num_filters=64, frame_duration=0.1)
    spectrum = SpectrumAnalyzer().analyze(capture)
    blade_pass = server.fans[0].blade_pass_hz
    return Fig6Panel(
        room=room,
        fan_on=fan_on,
        spectrogram=spectrogram,
        blade_pass_hz=blade_pass,
        blade_line_level_db=spectrum.level_at(blade_pass),
        noise_floor_db=spectrum.noise_floor_db(),
    )


@dataclass
class Fig6Result(Result):
    """All four Figure 6 panels: each room with the fan on, then off."""

    panels: list[Fig6Panel]

    def rows(self):
        rows = [("room", "fan", "line dB", "floor dB", "prominence dB")]
        rows += [(panel.room, "ON" if panel.fan_on else "OFF",
                  f"{panel.blade_line_level_db:.1f}",
                  f"{panel.noise_floor_db:.1f}",
                  f"{panel.line_prominence_db:.1f}")
                 for panel in self.panels]
        return [("Fig 6: blade-pass line vs room floor", rows)]


def fan_spectrogram_experiment() -> Fig6Result:
    """Render all four Figure 6 panels."""
    return Fig6Result([fan_spectrogram_panel(room, fan_on)
                       for room in ROOMS for fan_on in (True, False)])


@dataclass
class Fig7Result:
    """One Figure 7 trace: difference scores around a failure."""

    room: str
    scores: TimeSeries
    threshold: float
    failure_time: float
    detection_time: float | None
    on_on_max_score: float
    on_off_min_score: float

    @property
    def detected(self) -> bool:
        return self.detection_time is not None

    @property
    def separation_ratio(self) -> float:
        """on↔off score over on↔on score: the Figure 7 gap."""
        if self.on_on_max_score <= 0:
            return float("inf")
        return self.on_off_min_score / self.on_on_max_score


def fan_failure_experiment(
    room: str = "datacenter",
    duration: float = 14.0,
    failure_time: float = 7.0,
    threshold_factor: float = 3.0,
) -> Fig7Result:
    """Run the Figure 7 detection experiment in one room."""
    server = Server("target")
    server.fail_all(failure_time)
    scene = _scene(room, duration, server)
    watchdog = FanWatchdog(scene.channel, scene.microphone,
                           threshold_factor=threshold_factor)
    watchdog.run(0.0, duration)
    healthy = watchdog.scores.window(0.0, failure_time - 0.5)
    failed = watchdog.scores.window(failure_time + 2.5, duration)
    return Fig7Result(
        room=room,
        scores=watchdog.scores,
        threshold=watchdog.threshold,
        failure_time=failure_time,
        detection_time=watchdog.detection_time(),
        on_on_max_score=healthy.max(),
        on_off_min_score=failed.min() if len(failed) else 0.0,
    )


@dataclass
class Fig7Rooms(Result):
    """The Figure 7 run in each room."""

    rooms: list[Fig7Result]

    def rows(self):
        rows = [("room", "on-on max", "on-off min", "separation",
                 "detected at")]
        rows += [(result.room, f"{result.on_on_max_score:.1f}",
                  f"{result.on_off_min_score:.1f}",
                  f"{result.separation_ratio:.1f}x",
                  f"{result.detection_time:.1f} s")
                 for result in self.rooms]
        return [("Fig 7: amplitude-difference failure detection", rows)]


def fan_failure_rooms() -> Fig7Rooms:
    """Run the Figure 7 detection experiment in both rooms."""
    return Fig7Rooms([fan_failure_experiment(room=room) for room in ROOMS])
