"""Tests for the token bucket and strict flow deletion."""

import pytest

from repro.infra import TokenBucket
from repro.net import (
    Action,
    FlowMod,
    FlowModCommand,
    Match,
    Simulator,
    single_switch_topology,
)


class TestTokenBucket:
    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=10)
        with pytest.raises(ValueError):
            TokenBucket(rate=10, burst=0)

    def test_burst_allowed_then_policed(self):
        bucket = TokenBucket(rate=10, burst=5)
        outcomes = [bucket.admit(0.0) for _ in range(8)]
        assert outcomes == [True] * 5 + [False] * 3
        assert bucket.shed == 3

    def test_tokens_refill_over_time(self):
        bucket = TokenBucket(rate=10, burst=5)
        for _ in range(5):
            bucket.admit(0.0)
        assert not bucket.admit(0.0)
        # 0.5 s at 10 pps = +5 tokens.
        assert bucket.peek(0.5) == pytest.approx(5.0, abs=0.1)
        assert bucket.admit(0.5)

    def test_bucket_caps_at_burst(self):
        bucket = TokenBucket(rate=100, burst=5)
        assert bucket.peek(10.0) == 5.0

    def test_sustained_rate_enforced(self):
        """Over a long window, conformant packets ~= rate * time."""
        bucket = TokenBucket(rate=50, burst=5)
        allowed = 0
        for step in range(1000):  # 100 pps offered for 10 s
            if bucket.admit(step * 0.01):
                allowed += 1
        assert allowed == pytest.approx(50 * 10, rel=0.05)


class TestStrictDelete:
    def test_strict_delete_spares_base_route(self):
        from repro.net import ControlChannel

        sim = Simulator()
        topo = single_switch_topology(sim, 2)  # installs base routes
        s1 = topo.switches["s1"]
        channel = ControlChannel(sim)
        channel.register_switch(s1)
        port = topo.port_towards("s1", "h2")
        base_entries = len(s1.flow_table)
        channel.send_flow_mod("s1", FlowMod(
            Match(dst_ip="10.0.0.2"), Action.forward(port), priority=100,
        ))
        sim.run(0.01)
        assert len(s1.flow_table) == base_entries + 1
        channel.send_flow_mod("s1", FlowMod(
            Match(dst_ip="10.0.0.2"), priority=100,
            command=FlowModCommand.DELETE, strict=True,
        ))
        sim.run(0.02)
        # Only the priority-100 overlay is gone; the base route survives.
        assert len(s1.flow_table) == base_entries
        topo.hosts["h1"].send_to("10.0.0.2", 80)
        sim.run(0.1)
        assert topo.hosts["h2"].bytes_received.total == 1000
