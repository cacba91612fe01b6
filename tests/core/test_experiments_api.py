"""API-surface tests for the experiments package: validation paths and
result invariants that the benchmarks (which use defaults) don't hit."""

import pytest

from repro.audio import FskReceiver
from repro.experiments import (
    build_testbed,
    fan_spectrogram_panel,
    fft_latency_cdf,
    modem_experiment,
    multiswitch_fft,
    superspreader_experiment,
)
from repro.experiments.rigs import SPEAKER_RING


class TestBuildTestbed:
    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            build_testbed("torus")

    def test_rhombus_has_four_agents(self):
        testbed = build_testbed("rhombus")
        assert set(testbed.agents) == {"s_in", "s_top", "s_bottom", "s_out"}

    def test_agents_at_distinct_positions(self):
        testbed = build_testbed("rhombus")
        positions = {
            (agent.speaker.position.x, agent.speaker.position.y)
            for agent in testbed.agents.values()
        }
        assert len(positions) == len(testbed.agents)

    def test_extra_agent_registered(self):
        testbed = build_testbed("single")
        agent = testbed.extra_agent("aux", SPEAKER_RING[-1])
        assert testbed.agents["aux"] is agent


class TestExperimentValidation:
    def test_fan_panel_unknown_room(self):
        with pytest.raises(ValueError, match="room"):
            fan_spectrogram_panel("closet", True)

    def test_superspreader_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            superspreader_experiment(mode="teardrop")

    def test_modem_decoder_bug_is_not_a_failed_decode(self, monkeypatch):
        """Only ``ModemError`` reads as "decoded: False"; any other
        exception from the decoder is a bug and must propagate."""
        def broken_decode(self, capture, start):
            raise TypeError("decoder bug")

        monkeypatch.setattr(FskReceiver, "decode", broken_decode)
        with pytest.raises(TypeError, match="decoder bug"):
            modem_experiment()


class TestResultInvariants:
    def test_fig2b_percentiles_monotone(self):
        result = fft_latency_cdf(num_samples=100)
        points = result.cdf_points()
        values = [value for _quantile, value in points]
        assert values == sorted(values)

    def test_fig2a_respects_switch_count(self):
        result = multiswitch_fft(num_switches=3)
        assert len(result.played) == 3
        assert result.all_identified
