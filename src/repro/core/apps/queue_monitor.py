"""Queue chirps: the shared switch-side mechanism of Section 6.

"Every 300 ms, each switch is programmed to send a sound whose
frequency depends on the number of packets currently in the switch's
queue": below 25 packets the lowest tone, between 25 and 75 the middle
tone, above 75 the highest (Figure 5).  The Figure 5c–d monitoring
use case uses exactly 500/600/700 Hz.

:class:`QueueChirper` is the switch half (used by both §6 apps);
:class:`QueueMonitorApp` is the controller half for the monitoring use
case — it tracks each switch's congestion band over time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...net.queueing import QueueBands
from ...net.switch import Switch
from ...net.stats import TimeSeries
from ..agent import MusicAgent
from ..controller import MDNController

#: The paper's chirp period (§6).
CHIRP_PERIOD = 0.3

#: The Figure 5c–d band frequencies, Hz.
FIG5_BAND_FREQUENCIES = {"low": 500.0, "medium": 600.0, "high": 700.0}


@dataclass(frozen=True)
class BandToneMap:
    """Frequencies assigned to the three queue bands of one switch."""

    low: float
    medium: float
    high: float

    @classmethod
    def from_frequencies(cls, frequencies: tuple[float, ...]) -> "BandToneMap":
        if len(frequencies) < 3:
            raise ValueError("need three frequencies for three bands")
        return cls(frequencies[0], frequencies[1], frequencies[2])

    def frequency_of(self, band: str) -> float:
        return {"low": self.low, "medium": self.medium, "high": self.high}[band]

    def band_of(self, frequency: float) -> str:
        mapping = {self.low: "low", self.medium: "medium", self.high: "high"}
        return mapping[frequency]

    def frequencies(self) -> list[float]:
        return [self.low, self.medium, self.high]


class QueueChirper:
    """Switch-side half: the 300 ms queue-band chirp timer.

    Parameters
    ----------
    switch:
        The switch whose egress queue is sampled (the tc poll).
    port:
        Which egress port's queue to watch.
    tones:
        The band→frequency map for this switch.
    bands:
        Occupancy thresholds (paper: 25/75).
    always_chirp:
        If False (default), a chirp is only emitted when the band
        *changed* or on every ``refresh_every`` samples, keeping the
        air quiet in steady state.  True reproduces the paper exactly:
        one chirp every period regardless.
    """

    def __init__(
        self,
        sim,
        switch: Switch,
        port: int,
        agent: MusicAgent,
        tones: BandToneMap,
        bands: QueueBands | None = None,
        period: float = CHIRP_PERIOD,
        tone_duration: float = 0.08,
        tone_level_db: float = 70.0,
        always_chirp: bool = True,
        refresh_every: int = 10,
    ) -> None:
        self.switch = switch
        self.port = port
        self.agent = agent
        self.tones = tones
        self.bands = bands or QueueBands()
        self.period = period
        self.tone_duration = tone_duration
        self.tone_level_db = tone_level_db
        self.always_chirp = always_chirp
        self.refresh_every = refresh_every
        self._last_band: str | None = None
        self._since_refresh = 0
        #: The sampled queue lengths — the Figure 5a/5c series.
        self.queue_series = TimeSeries(f"{switch.name}.queue")
        self._timer = sim.every(period, self._chirp)

    def stop(self) -> None:
        self._timer.stop()

    def _chirp(self) -> None:
        now = self.switch.sim.now
        length = self.switch.egress_queue(self.port).sample(now)
        self.queue_series.record(now, length)
        band = self.bands.classify(length)
        changed = band != self._last_band
        self._since_refresh += 1
        if not self.always_chirp and not changed:
            if self._since_refresh < self.refresh_every:
                return
        self._since_refresh = 0
        self._last_band = band
        self.agent.play(
            self.tones.frequency_of(band), self.tone_duration, self.tone_level_db
        )


class QueueMonitorApp:
    """Controller-side half of Figure 5c–d: track the congestion band.

    Listens for one switch's three band tones and maintains the
    inferred band over time; "if it hears a frequency it recognizes, it
    knows the range for the number of packets in the queue (and can
    then make a congestion decision based on that)".
    """

    def __init__(
        self,
        controller: MDNController,
        switch_name: str,
        tones: BandToneMap,
    ) -> None:
        self.controller = controller
        self.switch_name = switch_name
        self.tones = tones
        self.current_band: str | None = None
        #: (time, band) transitions as heard.
        self.band_history: list[tuple[float, str]] = []
        controller.watch(tones.frequencies(), on_detection=self._on_tone)

    def _on_tone(self, event) -> None:
        band = self.tones.band_of(event.frequency)
        if band != self.current_band:
            self.current_band = band
            self.band_history.append((event.time, band))

    @property
    def is_congested(self) -> bool:
        return self.current_band == "high"
