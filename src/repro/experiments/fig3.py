"""Figure 3 experiment: port knocking.

A sender hammers a closed port for ~34 s (Fig 3a's blue line); mid-run
it emits the three-knock sequence; the port opens and received bytes
start tracking sent bytes (red dashed line).  Fig 3b is the mel-scaled
spectrogram of the knock window showing the three ascending tones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..artifact import Result
from ..audio import mel_spectrogram
from ..core.apps import KnockConfig, KnockEmitter, PortKnockingApp
from ..net import Action, ByteCounterSampler, ConstantRateSource, TimeSeries
from .rigs import build_testbed

KNOCK_PORTS = (7001, 7002, 7003)
PROTECTED_PORT = 8080


@dataclass
class Fig3Result(Result):
    """Series and events of one port-knocking run."""

    sent_bytes: TimeSeries
    received_bytes: TimeSeries
    opened_at: float | None
    knock_times: list[float]
    knock_ports_heard: list[int]
    #: Mel spectrogram of the knock window: (times, centers_hz, mags).
    spectrogram: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def opened(self) -> bool:
        return self.opened_at is not None

    def rows(self):
        rows = [("t (s)", "sent kB", "recvd kB")]
        rows += [(f"{time:.0f}", f"{sent / 1000:.0f}",
                  f"{self.received_bytes.value_at(time) / 1000:.0f}")
                 for time, sent in zip(self.sent_bytes.times[::4],
                                       self.sent_bytes.values[::4])]
        rows.append(f"knocks heard: {self.knock_ports_heard}; "
                    f"port opened at t = {self.opened_at:.1f} s")
        return [("Fig 3a: bytes sent / received", rows)]


def port_knocking_experiment(
    duration: float = 34.0,
    knock_start: float = 12.0,
    knock_spacing: float = 1.5,
    sender_rate_pps: float = 40.0,
    sample_interval: float = 0.5,
    correct_order: bool = True,
) -> Fig3Result:
    """Run the Figure 3 experiment end to end.

    ``correct_order=False`` runs the control: the same knocks in a
    wrong order, which must leave the port closed for the whole run.
    """
    testbed = build_testbed("single", default_action=Action.drop())
    switch = testbed.topo.switches["s1"]
    h1, h2 = testbed.topo.hosts["h1"], testbed.topo.hosts["h2"]

    allocation = testbed.plan.allocate("s1", len(KNOCK_PORTS))
    config = KnockConfig(list(KNOCK_PORTS), PROTECTED_PORT, allocation)
    KnockEmitter(switch, testbed.agents["s1"], config)
    app = PortKnockingApp(testbed.controller, "s1", h2.ip, config)
    app.set_output_port(testbed.topo.port_towards("s1", "h2"))
    testbed.controller.start()

    sender_sampler = ByteCounterSampler(testbed.sim, h1, sample_interval)
    receiver_sampler = ByteCounterSampler(testbed.sim, h2, sample_interval)

    source = ConstantRateSource(h1, h2.ip, PROTECTED_PORT,
                                rate_pps=sender_rate_pps, start=0.0,
                                stop=duration)
    source.launch()

    knocks = list(KNOCK_PORTS) if correct_order else [
        KNOCK_PORTS[0], KNOCK_PORTS[2], KNOCK_PORTS[1]
    ]
    for index, port in enumerate(knocks):
        testbed.sim.schedule_at(
            knock_start + index * knock_spacing,
            lambda p=port: h1.send_to(h2.ip, p),
        )

    testbed.sim.run(duration)

    # Fig 3b: spectrogram of the knock window.
    knock_window = testbed.controller.microphone.record(
        testbed.channel,
        knock_start - 0.5,
        knock_start + knock_spacing * len(knocks) + 0.5,
    )
    spectrogram = mel_spectrogram(knock_window, num_filters=48,
                                  frame_duration=0.1)
    return Fig3Result(
        sent_bytes=sender_sampler.sent,
        received_bytes=receiver_sampler.received,
        opened_at=app.opened_at,
        knock_times=[time for time, _port in app.knock_log],
        knock_ports_heard=[port for _time, port in app.knock_log],
        spectrogram=spectrogram,
    )
