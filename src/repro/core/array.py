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

import numpy as np

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

    def _hear(self, starts: list[float], ends: list[float]) -> list:
        """Record every station and keep the loudest event per frequency
        and window; ties go to the first station name in sorted order.
        Each window's hearing also says which stations heard each
        frequency and which won it, for :meth:`_accept`."""
        names = sorted(self.stations)
        captures = []
        for name in names:
            frames = self.stations[name].record_block(self.channel, starts,
                                                      ends)
            # A station nearer the tones may take a shorter block.
            starts, ends = starts[: len(frames)], ends[: len(frames)]
            captures.append(frames)
        windows = len(starts)
        heard = self._detector.detect_frames(
            np.concatenate([frames[:windows] for frames in captures]),
            self.channel.sample_rate, starts * len(names),
        )
        hearings = []
        for window in range(windows):
            loudest: dict[float, DetectionEvent] = {}
            heard_by: dict[float, list[str]] = {}
            winners: dict[float, str] = {}
            raw = 0
            for station, name in enumerate(names):
                events = heard[station * windows + window]
                raw += len(events)
                for event in events:
                    heard_by.setdefault(event.frequency, []).append(name)
                    best = loudest.get(event.frequency)
                    if best is None or event.level_db > best.level_db:
                        loudest[event.frequency] = event
                        winners[event.frequency] = name
            hearings.append((
                [loudest[frequency] for frequency in sorted(loudest)],
                heard_by, winners, raw,
            ))
        return hearings

    def _accept(self, heard) -> list[DetectionEvent]:
        """Take in one window at its turn: publish who heard and who won
        each frequency, and count every station's capture."""
        events, self.heard_by, winners, raw = heard
        self.coverage.update(winners)
        self._detector.tally(raw, len(self.stations))
        return events
