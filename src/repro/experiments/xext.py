"""Extension experiments: the paper's open problems, made to run.

* **XEXT1** — multi-hop relay (§8: "we leave this as an open question").
* **XEXT2** — DDoS / k-superspreader detection via chords (§5: "we
  leave that as an open problem").
* **XEXT3** — ultrasound capacity (§8: "including frequencies outside
  the spectrum of human hearing would allow ... more ... scalable
  network management operations").
* **XEXT4** — acoustic data modem throughput (§2's literature context:
  ~20 bytes / 6 s per hop).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..artifact import Result
from ..audio import (
    AcousticChannel,
    FrequencyDetector,
    FskReceiver,
    FskTransmitter,
    Microphone,
    ModemError,
    Position,
    Speaker,
    ToneSpec,
    default_modem_config,
)
from ..core import FrequencyPlan, build_relay_chain
from ..core.apps import (
    AddressToneMapper,
    ChordEmitter,
    SuperspreaderDetectorApp,
)
from ..net import FanInSource, FanOutSource, Simulator
from .rigs import build_testbed


@dataclass
class RelayResult:
    """XEXT1 outcome."""

    num_hops: int
    source_to_listener_m: float
    direct_heard: bool
    relayed_heard: bool
    end_to_end_latency: float | None
    per_relay_counts: list[float]


def relay_experiment(
    num_relays: int = 2,
    hop_distance_m: float = 30.0,
    source_level_db: float = 60.0,
    gain_db: float = 35.0,
) -> RelayResult:
    """Ladder a tone across ``num_relays`` hops and race it against the
    direct (single-hop) path at the same total distance."""
    sim = Simulator()
    channel = AcousticChannel()
    plan = FrequencyPlan(low_hz=800.0, guard_hz=40.0)
    positions = [Position(hop_distance_m * (index + 1), 0.0, 0.0)
                 for index in range(num_relays)]
    relays = build_relay_chain(sim, channel, plan, positions, block_size=2,
                               gain_db=gain_db)
    ingress = plan.allocation_of("relay-block0")
    final = plan.allocation_of(f"relay-block{num_relays}")
    total_distance = hop_distance_m * (num_relays + 1)

    emit_time = 1.0
    source = Speaker(Position(0.0, 0.0, 0.0))
    sim.schedule_at(emit_time, lambda: source.play(
        channel, sim.now, ToneSpec(ingress.frequency_for(0), 0.15,
                                   source_level_db)
    ))

    listener = Microphone(Position(total_distance, 0.0, 0.0), seed=55)
    direct_detector = FrequencyDetector(list(ingress.frequencies),
                                        min_level_db=30.0)
    final_detector = FrequencyDetector(list(final.frequencies),
                                       min_level_db=30.0)
    direct_hits: list[float] = []
    relayed_hits: list[float] = []

    def listen() -> None:
        window = listener.record(channel, sim.now - 0.1, sim.now)
        if direct_detector.detect(window):
            direct_hits.append(sim.now)
        if final_detector.detect(window):
            relayed_hits.append(sim.now)

    sim.every(0.1, listen)
    sim.run(emit_time + 0.5 * (num_relays + 2) + 2.0)

    return RelayResult(
        num_hops=num_relays + 1,
        source_to_listener_m=total_distance,
        direct_heard=bool(direct_hits),
        relayed_heard=bool(relayed_hits),
        end_to_end_latency=(relayed_hits[0] - emit_time) if relayed_hits
        else None,
        per_relay_counts=[relay.relayed.total for relay in relays],
    )


@dataclass
class SuperspreaderResult:
    """XEXT2 outcome."""

    mode: str                      #: "superspreader" or "ddos"
    attack_detected: bool
    attacker_flagged: bool
    benign_alerts: int
    detection_interval: float | None


def superspreader_experiment(
    mode: str = "superspreader",
    num_addresses: int = 15,
    k: int = 5,
    duration: float = 9.0,
) -> SuperspreaderResult:
    """Run the chord-telemetry attack detection in one of two modes."""
    if mode not in ("superspreader", "ddos"):
        raise ValueError(f"unknown mode {mode!r}")
    testbed = build_testbed("single")
    mapper = AddressToneMapper(
        testbed.plan.allocate("s1/src", 12),
        testbed.plan.allocate("s1/dst", 12),
    )
    second_agent = testbed.extra_agent("s1-chord", Position(0.0, -0.9, 0.0))
    ChordEmitter(testbed.topo.switches["s1"], testbed.agents["s1"],
                 second_agent, mapper)
    app = SuperspreaderDetectorApp(testbed.controller, mapper, k=k)
    testbed.controller.start()

    host = testbed.topo.hosts["h1"]
    if mode == "superspreader":
        attack = FanOutSource(
            host, [f"10.1.0.{index}" for index in range(num_addresses)],
            interval=0.12, rounds=4,
        )
    else:
        attack = FanInSource(
            host, [f"10.2.0.{index}" for index in range(num_addresses)],
            "10.0.0.2", interval=0.12, rounds=4,
        )
    attack.launch()
    testbed.sim.run(duration)

    if mode == "superspreader":
        detected = app.superspreader_detected
        flagged = app.is_source_flagged(host.ip)
        first = (app.spreader_alerts[0].interval_start
                 if app.spreader_alerts else None)
        benign = len(app.victim_alerts)  # fan-out shouldn't cry "victim"
        # (a fan-out's single source does appear as many dst contacts'
        # counterpart, so victim alerts would be false alarms)
    else:
        detected = app.ddos_detected
        flagged = app.is_victim_flagged("10.0.0.2")
        first = (app.victim_alerts[0].interval_start
                 if app.victim_alerts else None)
        benign = len(app.spreader_alerts)
    return SuperspreaderResult(mode, detected, flagged, benign, first)


@dataclass
class UltrasoundResult:
    """XEXT3 outcome."""

    audible_capacity: int
    extended_capacity: int
    ultrasound_tone_detected: bool


def ultrasound_experiment(guard_hz: float = 20.0) -> UltrasoundResult:
    """Extend the plan into ultrasound (to 40 kHz at a 96 kHz channel
    rate) and verify a 25 kHz tone detects like any other."""
    audible = FrequencyPlan(low_hz=20.0, high_hz=20_000.0, guard_hz=guard_hz)
    extended = FrequencyPlan(low_hz=20.0, high_hz=40_000.0, guard_hz=guard_hz)

    sample_rate = 96_000
    channel = AcousticChannel(sample_rate=sample_rate)
    speaker = Speaker(Position(0.5, 0.0, 0.0), max_frequency=45_000.0)
    speaker.play(channel, 0.0, ToneSpec(25_000.0, 0.3, 70.0))
    microphone = Microphone(Position(), sample_rate=sample_rate, seed=8)
    window = microphone.record(channel, 0.05, 0.25)
    detector = FrequencyDetector([25_000.0])
    events = detector.detect(window)
    return UltrasoundResult(
        audible_capacity=audible.capacity,
        extended_capacity=extended.capacity,
        ultrasound_tone_detected=len(events) == 1,
    )


@dataclass
class ModemResult:
    """XEXT4 outcome."""

    payload_bytes: int
    airtime_s: float
    effective_bits_per_second: float
    decoded_ok: bool
    decoded_ok_with_song: bool


def modem_experiment(payload: bytes = b"MDN alert: rack 7 fan failure") -> ModemResult:
    """Measure frame airtime and verify decode, clean and under song
    noise."""
    from ..audio import SongNoise

    plan = FrequencyPlan(low_hz=1000.0, guard_hz=40.0)
    config = default_modem_config(plan.allocate("modem", 5))

    def run(with_song: bool) -> tuple[bool, float]:
        channel = AcousticChannel()
        if with_song:
            channel.add_noise(SongNoise(seed=5, level_db=50.0).render(12.0),
                              Position(2.0, 2.0, 0.0))
        transmitter = FskTransmitter(config, Speaker(Position(0.6, 0.0, 0.0)))
        end = transmitter.send(channel, 0.5, payload)
        capture = Microphone(Position(), seed=9).record(channel, 0.0,
                                                        end + 0.3)
        try:
            decoded = FskReceiver(config).decode(capture, 0.0)
        except ModemError:
            return False, end - 0.5
        return decoded == payload, end - 0.5

    clean_ok, airtime = run(False)
    noisy_ok, _ = run(True)
    return ModemResult(
        payload_bytes=len(payload),
        airtime_s=airtime,
        effective_bits_per_second=len(payload) * 8 / airtime,
        decoded_ok=clean_ok,
        decoded_ok_with_song=noisy_ok,
    )


@dataclass
class XextResult(Result):
    """XEXT1–4 together (XEXT2 in both attack modes)."""

    relay: RelayResult
    superspreader: SuperspreaderResult
    ddos: SuperspreaderResult
    ultrasound: UltrasoundResult
    modem: ModemResult

    def rows(self):
        relay, modem = self.relay, self.modem
        return [
            ("XEXT1: multi-hop relay", [
                ("direct heard", relay.direct_heard),
                ("relayed heard", relay.relayed_heard),
                ("latency", f"{relay.end_to_end_latency:.2f} s"),
            ]),
            ("XEXT2: chord telemetry", [
                ("superspreader detected", self.superspreader.attack_detected),
                ("DDoS victim detected", self.ddos.attack_detected),
            ]),
            ("XEXT3: ultrasound capacity", [
                ("audible", self.ultrasound.audible_capacity),
                ("extended", self.ultrasound.extended_capacity),
            ]),
            ("XEXT4: FSK modem", [
                ("airtime",
                 f"{modem.airtime_s:.2f} s for {modem.payload_bytes} B"),
                ("decoded clean / noisy",
                 f"{modem.decoded_ok} / {modem.decoded_ok_with_song}"),
            ]),
        ]


def extensions_experiment() -> XextResult:
    """Run XEXT1–4 (XEXT2 as superspreader and as DDoS)."""
    return XextResult(
        relay=relay_experiment(),
        superspreader=superspreader_experiment("superspreader"),
        ddos=superspreader_experiment("ddos"),
        ultrasound=ultrasound_experiment(),
        modem=modem_experiment(),
    )
