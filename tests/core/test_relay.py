"""Unit/integration tests for the multi-hop tone relay (§8 extension)."""

from dataclasses import asdict

import pytest

from repro.audio import (
    AcousticChannel,
    FrequencyDetector,
    Microphone,
    Position,
    Speaker,
    ToneSpec,
)
from repro.core import FrequencyPlan, ToneRelay, build_relay_chain
from repro.experiments import relay_experiment
from repro.net import Simulator


def make_relay(sim, channel, plan, position=Position(20, 0, 0), **kwargs):
    uplink = plan.allocate("up", 3)
    downlink = plan.allocate("down", 3)
    relay = ToneRelay(
        sim, channel,
        Microphone(position, seed=50), Speaker(position),
        uplink, downlink, **kwargs,
    )
    return relay, uplink, downlink


class TestValidation:
    def test_block_sizes_must_match(self):
        sim, channel = Simulator(), AcousticChannel()
        plan = FrequencyPlan(low_hz=800, guard_hz=40)
        up = plan.allocate("up", 3)
        down = plan.allocate("down", 2)
        with pytest.raises(ValueError, match="size"):
            ToneRelay(sim, channel, Microphone(), Speaker(), up, down)

    def test_double_start_rejected(self):
        sim, channel = Simulator(), AcousticChannel()
        plan = FrequencyPlan(low_hz=800, guard_hz=40)
        relay, _up, _down = make_relay(sim, channel, plan)
        relay.start()
        with pytest.raises(RuntimeError):
            relay.start()


class TestSingleRelay:
    def test_translates_tone(self):
        sim, channel = Simulator(), AcousticChannel()
        plan = FrequencyPlan(low_hz=800, guard_hz=40)
        relay, uplink, downlink = make_relay(sim, channel, plan)
        relay.start()
        source = Speaker(Position(19.0, 0, 0))  # near the relay
        sim.schedule_at(0.5, lambda: source.play(
            channel, sim.now, ToneSpec(uplink.frequency_for(1), 0.15, 70.0)
        ))
        sim.run(2.0)
        assert relay.relayed.total == 1
        emitted = [tone for tone in channel.scheduled_tones
                   if tone.spec.frequency == downlink.frequency_for(1)]
        assert len(emitted) == 1

    def test_translate_mapping(self):
        sim, channel = Simulator(), AcousticChannel()
        plan = FrequencyPlan(low_hz=800, guard_hz=40)
        relay, uplink, downlink = make_relay(sim, channel, plan)
        for index in range(3):
            assert relay.translate(uplink.frequency_for(index)) == \
                downlink.frequency_for(index)

    def test_ignores_downlink_tones(self):
        """No feedback loop: the relay's own output block does not
        re-trigger it."""
        sim, channel = Simulator(), AcousticChannel()
        plan = FrequencyPlan(low_hz=800, guard_hz=40)
        relay, _uplink, downlink = make_relay(sim, channel, plan)
        relay.start()
        near = Speaker(Position(19.5, 0, 0))
        sim.schedule_at(0.5, lambda: near.play(
            channel, sim.now, ToneSpec(downlink.frequency_for(0), 0.2, 75.0)
        ))
        sim.run(2.0)
        assert relay.relayed.total == 0

    def test_refractory_suppresses_duplicates(self):
        sim, channel = Simulator(), AcousticChannel()
        plan = FrequencyPlan(low_hz=800, guard_hz=40)
        relay, uplink, _downlink = make_relay(sim, channel, plan,
                                              refractory=1.0)
        relay.start()
        source = Speaker(Position(19.0, 0, 0))
        for delay in (0.5, 0.8):  # two tones within the refractory
            sim.schedule_at(delay, lambda: source.play(
                channel, sim.now, ToneSpec(uplink.frequency_for(0), 0.12, 70.0)
            ))
        sim.run(3.0)
        assert relay.relayed.total == 1

    def test_amplifies_weak_tones(self):
        """A tone arriving at 35 dB leaves at 35+gain (capped by the
        speaker's maximum)."""
        sim, channel = Simulator(), AcousticChannel()
        plan = FrequencyPlan(low_hz=800, guard_hz=40)
        relay, uplink, downlink = make_relay(sim, channel, plan, gain_db=30.0)
        relay.start()
        far_source = Speaker(Position(-15.0, 0, 0))  # 35 m from relay
        sim.schedule_at(0.5, lambda: far_source.play(
            channel, sim.now, ToneSpec(uplink.frequency_for(0), 0.2, 66.0)
        ))
        sim.run(2.0)
        emitted = [tone for tone in channel.scheduled_tones
                   if tone.spec.frequency == downlink.frequency_for(0)]
        assert len(emitted) == 1
        # Received ~ 66 - 20log10(35) ≈ 35 dB; re-emitted at ~65 dB.
        assert emitted[0].spec.level_db > 55.0


class TestRelayChain:
    def test_two_hop_chain_extends_range(self):
        """The §8 scenario: the source is far beyond single-hop range
        of the controller, but a chain of relays carries the tone."""
        sim, channel = Simulator(), AcousticChannel()
        plan = FrequencyPlan(low_hz=800, guard_hz=40)
        relays = build_relay_chain(
            sim, channel, plan,
            [Position(30, 0, 0), Position(60, 0, 0)], block_size=2,
            gain_db=35.0,
        )
        ingress = plan.allocation_of("relay-block0")
        final = plan.allocation_of("relay-block2")

        source = Speaker(Position(0, 0, 0))
        sim.schedule_at(1.0, lambda: source.play(
            channel, sim.now, ToneSpec(ingress.frequency_for(0), 0.15, 60.0)
        ))

        listener = Microphone(Position(90, 0, 0), seed=55)
        detector = FrequencyDetector(list(final.frequencies),
                                     min_level_db=30.0)
        heard = []
        sim.every(0.1, lambda: heard.extend(
            detector.detect(listener.record(channel, sim.now - 0.1, sim.now),
                            sim.now - 0.1)
        ))
        sim.run(3.0)
        assert all(relay.relayed.total == 1 for relay in relays)
        assert any(event.frequency == final.frequency_for(0)
                   for event in heard)

    def test_direct_signal_fails_at_that_range(self):
        """Control: without relays, 90 m of spreading puts the tone
        below a 40 dB detection floor."""
        sim, channel = Simulator(), AcousticChannel()
        plan = FrequencyPlan(low_hz=800, guard_hz=40)
        ingress = plan.allocate("solo", 2)
        source = Speaker(Position(0, 0, 0))
        sim.schedule_at(1.0, lambda: source.play(
            channel, sim.now, ToneSpec(ingress.frequency_for(0), 0.15, 60.0)
        ))
        listener = Microphone(Position(90, 0, 0), seed=55)
        detector = FrequencyDetector(list(ingress.frequencies),
                                     min_level_db=30.0)
        heard = []
        sim.every(0.1, lambda: heard.extend(
            detector.detect(listener.record(channel, sim.now - 0.1, sim.now))
        ))
        sim.run(3.0)
        assert heard == []

    def test_relay_experiment_result_pinned(self):
        """XEXT1 end to end, pinned to the last bit: two relays carry
        the tone 90 m, one forward each, 0.6 s source to listener."""
        assert asdict(relay_experiment()) == {
            "num_hops": 3,
            "source_to_listener_m": 90.0,
            "direct_heard": False,
            "relayed_heard": True,
            "end_to_end_latency": 0.6000000000000001,
            "per_relay_counts": [1.0, 1.0],
        }
