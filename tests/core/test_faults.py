"""Unit tests for the deterministic fault-injection subsystem."""

import numpy as np
import pytest

from repro.audio import (
    AcousticChannel, Position, Speaker,
)
from repro.audio.synth import ToneSpec
from repro.core import MusicAgent, PiBridge
from repro.core import MusicProtocolMessage
from repro.core.pi import MP_PORT
from repro.faults import FaultHarness, seeded_rng
from repro.net import FlowKey, Packet, Protocol
from repro.net.sim import Simulator
from repro.net.switch import Switch
from tests.audio.reference_render import render_reference

TONE = ToneSpec(1000.0, 0.08, 70.0)
SPEAKER_AT = Position(1.0, 0.0, 0.0)
LISTENER = Position()


def _rms(signal) -> float:
    return float(np.sqrt(np.mean(signal.samples**2)))


class TestSeededRng:
    def test_deterministic_per_label(self):
        assert (seeded_rng(7, "a").random(4) == seeded_rng(7, "a").random(4)).all()

    def test_labels_independent(self):
        assert not (
            seeded_rng(7, "a").random(4) == seeded_rng(7, "b").random(4)
        ).all()

    def test_seeds_independent(self):
        assert not (
            seeded_rng(7, "a").random(4) == seeded_rng(8, "a").random(4)
        ).all()


class TestDisabledIsFree:
    """With no faults scheduled the plant must be bit-identical."""

    def _render(self, attach_harness: bool):
        sim = Simulator()
        channel = AcousticChannel()
        channel.play_tone(0.1, TONE, SPEAKER_AT)
        if attach_harness:
            harness = FaultHarness(sim, seed=3)
            harness.acoustic(channel)
        return channel.render_at(LISTENER, 0.0, 0.3)

    def test_idle_injector_is_bit_identical(self):
        baseline = self._render(attach_harness=False)
        with_model = self._render(attach_harness=True)
        assert (baseline.samples == with_model.samples).all()


class TestSpeakerDropout:
    def _rig(self):
        sim = Simulator()
        channel = AcousticChannel()
        harness = FaultHarness(sim, seed=3)
        air = harness.acoustic(channel)
        return sim, channel, harness, air

    def test_render_during_outage_is_silent(self):
        sim, channel, harness, air = self._rig()
        channel.play_tone(0.1, TONE, SPEAKER_AT)
        air.drop_speaker(SPEAKER_AT, 0.0, 0.5)
        assert _rms(channel.render_at(LISTENER, 0.0, 0.3)) < 1e-6

    def test_tone_outside_outage_unaffected(self):
        sim, channel, harness, air = self._rig()
        channel.play_tone(0.1, TONE, SPEAKER_AT)
        air.drop_speaker(SPEAKER_AT, 0.5, 1.0)
        assert _rms(channel.render_at(LISTENER, 0.0, 0.3)) > 1e-3

    def test_emission_overlap_semantics(self):
        """A tone straddling the outage edge is fully muted."""
        sim, channel, harness, air = self._rig()
        channel.play_tone(0.1, TONE, SPEAKER_AT)  # emission [0.1, 0.18)
        air.drop_speaker(SPEAKER_AT, 0.15, 0.5)
        assert _rms(channel.render_at(LISTENER, 0.0, 0.3)) < 1e-6

    def test_other_speakers_unaffected(self):
        sim, channel, harness, air = self._rig()
        other = Position(0.0, 1.0, 0.0)
        channel.play_tone(0.1, TONE, SPEAKER_AT)
        channel.play_tone(0.1, TONE, other)
        air.drop_speaker(SPEAKER_AT, 0.0, 0.5)
        assert _rms(channel.render_at(LISTENER, 0.0, 0.3)) > 1e-3

    def test_cache_invalidated_by_fault_state_change(self):
        """A memoized window must be re-rendered — not served stale —
        once a fault covering it is scheduled."""
        sim, channel, harness, air = self._rig()
        channel.play_tone(1.1, TONE, SPEAKER_AT)
        loud = channel.render_at(LISTENER, 1.0, 1.3)
        cached = channel.render_at(LISTENER, 1.0, 1.3)  # memo hit
        assert (loud.samples == cached.samples).all()
        assert _rms(loud) > 1e-3
        air.drop_speaker(SPEAKER_AT, 1.0, 2.0)  # must evict the memo
        muted = channel.render_at(LISTENER, 1.0, 1.3)
        assert _rms(muted) < 1e-6

    def test_reference_path_equivalent_under_faults(self):
        sim, channel, harness, air = self._rig()
        channel.play_tone(0.05, TONE, SPEAKER_AT)
        channel.play_tone(0.1, ToneSpec(1500.0, 0.08, 68.0), SPEAKER_AT)
        channel.play_tone(0.06, ToneSpec(1200.0, 0.08, 66.0),
                          Position(0.0, 1.0, 0.0))
        air.drop_speaker(SPEAKER_AT, 0.0, 0.08)
        fast = channel.render_at(LISTENER, 0.0, 0.3)
        reference = render_reference(channel, LISTENER, 0.0, 0.3)
        np.testing.assert_allclose(fast.samples, reference.samples,
                                   atol=1e-9)

    def test_counters(self):
        sim, channel, harness, air = self._rig()
        channel.play_tone(0.1, TONE, SPEAKER_AT)
        air.drop_speaker(SPEAKER_AT, 0.0, 0.5)
        channel.render_at(LISTENER, 0.0, 0.3)
        summary = harness.summary()
        assert summary["speaker_dropouts"] == 1
        assert summary["tones_muted"] >= 1

    def test_validation(self):
        sim, channel, harness, air = self._rig()
        with pytest.raises(ValueError):
            air.drop_speaker(SPEAKER_AT, 1.0, 1.0)
        with pytest.raises(ValueError):
            air.random_dropouts(SPEAKER_AT, 0.0, 10.0, rate=1.0)


class TestRandomDropouts:
    def test_deterministic(self):
        def windows():
            sim = Simulator()
            channel = AcousticChannel()
            air = FaultHarness(sim, seed=9).acoustic(channel)
            return air.random_dropouts(SPEAKER_AT, 0.0, 60.0, rate=0.3,
                                       label="x")

        assert windows() == windows()

    def test_duty_cycle_near_rate(self):
        sim = Simulator()
        channel = AcousticChannel()
        air = FaultHarness(sim, seed=9).acoustic(channel)
        spans = air.random_dropouts(SPEAKER_AT, 0.0, 600.0, rate=0.3,
                                    label="duty")
        down = sum(end - start for start, end in spans)
        assert down / 600.0 == pytest.approx(0.3, abs=0.1)

    def test_zero_rate_schedules_nothing(self):
        sim = Simulator()
        channel = AcousticChannel()
        air = FaultHarness(sim, seed=9).acoustic(channel)
        assert air.random_dropouts(SPEAKER_AT, 0.0, 60.0, rate=0.0) == []


class TestMpLinkFaults:
    def _rig(self):
        sim = Simulator()
        channel = AcousticChannel()
        agent = MusicAgent(sim, channel, Speaker(SPEAKER_AT), name="s1")
        switch = Switch(sim, "s1")
        return sim, PiBridge(sim, switch, agent)

    def _run(self, loss_rate, frames=40, seed=3):
        sim, bridge = self._rig()
        harness = FaultHarness(sim, seed=seed)
        harness.mp_link(bridge.switch.ports[bridge.pi_port],
                        loss_rate=loss_rate, label="t")
        message = MusicProtocolMessage(1000.0, 0.05, 70.0)
        for index in range(frames):
            sim.schedule_at(index * 0.2, bridge.send_mp, message)
        sim.run(frames * 0.2 + 1.0)
        return bridge, harness.summary()

    def test_loss_drops_frames(self):
        bridge, summary = self._run(loss_rate=0.3)
        assert summary["mp_frames_lost"] > 0
        assert (bridge.pi.mp_played.total
                == 40 - summary["mp_frames_lost"])

    def test_corruption_rejected_by_checksum(self):
        """Every other frame crosses the Pi link with one bit flipped
        (a different bit each time): the MP checksum rejects exactly
        those, and the intact frames play."""
        sim, bridge = self._rig()
        wire = MusicProtocolMessage(1000.0, 0.05, 70.0).marshal()
        flow = FlowKey("0.0.0.0", bridge.pi.ip, MP_PORT, MP_PORT, Protocol.UDP)
        frames = 40
        for index in range(frames):
            payload = bytearray(wire)
            if index % 2:
                bit = index * 7 % (len(wire) * 8)
                payload[bit // 8] ^= 1 << (bit % 8)
            packet = Packet(flow, size_bytes=len(wire) + 42,
                            is_management=True, payload=bytes(payload))
            sim.schedule_at(index * 0.2, bridge.switch.transmit, packet,
                            bridge.pi_port)
        sim.run(frames * 0.2 + 1.0)
        assert bridge.pi.mp_rejected.total == frames // 2
        assert bridge.pi.mp_played.total == frames // 2

    def test_loss_stream_is_seed_deterministic(self):
        first, _ = self._run(loss_rate=0.3)
        second, _ = self._run(loss_rate=0.3)
        assert first.pi.mp_played.total == second.pi.mp_played.total

    def test_rate_validation(self):
        sim, bridge = self._rig()
        with pytest.raises(ValueError):
            FaultHarness(sim).mp_link(bridge.switch.ports[bridge.pi_port],
                                      loss_rate=1.5)
