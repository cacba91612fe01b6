"""Microphone arrays: the paper's §8 scaling direction.

"An interesting research direction is to coordinate an array of
microphones listening to different groups of switches."

:class:`MicrophoneArray` does that coordination: several stations, each
a microphone placed near one group of switches, polled on a common
clock.  It is an :class:`~repro.core.controller.MDNController` that
hears with every station: a tone heard by several microphones is
reported once, from the station that heard it loudest, and the rest is
the controller's own listen loop — so every controller app runs over an
array.  Switches too far from any single central microphone become
audible again through their local station.
"""

from __future__ import annotations

from ..audio.channel import AcousticChannel
from ..audio.detector import DetectionEvent
from ..audio.devices import Microphone
from ..net.sim import Simulator
from .controller import MDNController


class MicrophoneArray(MDNController):
    """A coordinated set of listening stations.

    Parameters
    ----------
    sim, channel:
        Shared clock and air.
    stations:
        ``{station_name: Microphone}`` — place each microphone near the
        switch group it covers.  Stations sharing one position (e.g.
        redundant capsules) also share the channel's per-window render
        memo: the air is mixed once per ``(position, window)`` and each
        capsule only adds its own self-noise.

    The rest are :class:`MDNController`'s.  Subscribers get plain
    ``DetectionEvent`` objects; :attr:`coverage` and :attr:`heard_by` say
    which station won a tone and which heard it.
    """

    def __init__(
        self,
        sim: Simulator,
        channel: AcousticChannel,
        stations: dict[str, Microphone],
        listen_interval: float = 0.1,
        threshold_db: float = 10.0,
        min_level_db: float = 30.0,
        prune_every: int = 600,
        prune_margin: float = 30.0,
    ) -> None:
        if not stations:
            raise ValueError("need at least one station")
        # No single microphone: _hear records every station instead.
        super().__init__(
            sim, channel, None, listen_interval=listen_interval,
            threshold_db=threshold_db, min_level_db=min_level_db,
            prune_every=prune_every, prune_margin=prune_margin,
        )
        self.stations = dict(stations)
        #: frequency -> station that last won it (coverage map).
        self.coverage: dict[float, str] = {}
        #: frequency -> stations that heard it in the latest window, in
        #: station-name order.
        self.heard_by: dict[float, list[str]] = {}

    def _hear(self, start: float, end: float) -> list[DetectionEvent]:
        """Record every station and keep the loudest event per
        frequency; ties go to the first station name in sorted order."""
        loudest: dict[float, DetectionEvent] = {}
        heard_by: dict[float, list[str]] = {}
        for name in sorted(self.stations):
            capture = self.stations[name].record(self.channel, start, end)
            for event in self._detector.detect(capture, start):
                heard_by.setdefault(event.frequency, []).append(name)
                best = loudest.get(event.frequency)
                if best is None or event.level_db > best.level_db:
                    loudest[event.frequency] = event
                    self.coverage[event.frequency] = name
        self.heard_by = heard_by
        return [loudest[frequency] for frequency in sorted(loudest)]
