"""State-machine tests for the circuit breaker."""

import pytest

from repro.infra import BreakerState, CircuitBreaker, RetryPolicy


def _trip(breaker: CircuitBreaker, now: float) -> None:
    for _ in range(breaker.failure_threshold):
        breaker.record_failure(now)


class TestLifecycle:
    def test_full_cycle_closed_open_half_open_closed(self):
        breaker = CircuitBreaker("s1", failure_threshold=3,
                                 recovery_timeout=1.0)
        assert breaker.state is BreakerState.CLOSED

        breaker.record_failure(1.0)
        breaker.record_failure(1.1)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(1.15)
        breaker.record_failure(1.2)
        assert breaker.state is BreakerState.OPEN
        assert breaker.opened_at == 1.2

        # OPEN: fast-fail until the cooldown elapses.
        assert not breaker.allow(1.5)
        assert not breaker.allow(2.1)
        assert breaker.fast_fails == 2

        # Cooldown over: the next attempt is the half-open probe.
        assert breaker.allow(2.3)
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success(2.35)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.consecutive_failures == 0

        states = [(t.previous, t.state) for t in breaker.transitions]
        assert states == [
            (BreakerState.CLOSED, BreakerState.OPEN),
            (BreakerState.OPEN, BreakerState.HALF_OPEN),
            (BreakerState.HALF_OPEN, BreakerState.CLOSED),
        ]

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=2, recovery_timeout=1.0)
        _trip(breaker, 0.0)
        assert breaker.allow(1.0)
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_failure(1.05)
        assert breaker.state is BreakerState.OPEN
        # The re-trip restarted a cooldown; attempts fast-fail again.
        assert not breaker.allow(1.5)

    def test_probe_limit_in_half_open(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_timeout=1.0,
                                 half_open_probes=1)
        _trip(breaker, 0.0)
        assert breaker.allow(1.0)       # the probe
        assert not breaker.allow(1.1)   # second attempt: fast-fail
        assert breaker.fast_fails == 1
        breaker.record_success(1.2)
        assert breaker.state is BreakerState.CLOSED

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure(0.1)
        breaker.record_failure(0.2)
        breaker.record_success(0.3)
        breaker.record_failure(0.4)
        breaker.record_failure(0.5)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(0.6)
        assert breaker.state is BreakerState.OPEN


class TestRecoveryEscalation:
    def test_retrip_cooldowns_walk_the_recovery_policy(self):
        """Consecutive re-trips against a still-dead link back off
        exponentially (1 s, 2 s, 4 s ... capped at 8x), so a wedged
        link is probed ever more lazily."""
        breaker = CircuitBreaker(failure_threshold=1, recovery_timeout=1.0)
        now = 0.0
        observed = []
        for _ in range(5):
            breaker.record_failure(now)
            assert breaker.state is BreakerState.OPEN
            reopen_at = breaker._reopen_at
            observed.append(reopen_at - now)
            assert not breaker.allow((now + reopen_at) / 2)
            assert breaker.allow(reopen_at)  # probe
            now = reopen_at + 0.01
        assert observed == pytest.approx([1.0, 2.0, 4.0, 8.0, 8.0])

    def test_recovery_resets_the_escalation(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_timeout=1.0)
        breaker.record_failure(0.0)
        assert breaker.allow(1.0)
        breaker.record_failure(1.0)          # re-trip: cooldown now 2 s
        assert breaker.allow(3.0)
        breaker.record_success(3.1)          # recovered: schedule resets
        breaker.record_failure(5.0)
        assert breaker._reopen_at - 5.0 == pytest.approx(1.0)

    def test_custom_recovery_policy(self):
        policy = RetryPolicy(initial_timeout=0.5, backoff=3.0,
                             max_timeout=4.5, deadline=float("inf"))
        breaker = CircuitBreaker(failure_threshold=1,
                                 recovery_policy=policy)
        breaker.record_failure(0.0)
        assert not breaker.allow(0.4)
        assert breaker.allow(0.5)
        breaker.record_failure(0.5)
        assert breaker._reopen_at - 0.5 == pytest.approx(1.5)


class TestListeners:
    def test_transitions_are_delivered(self):
        breaker = CircuitBreaker("s7", failure_threshold=1)
        breaker.record_failure(2.0)
        seen = breaker.transitions
        assert len(seen) == 1
        assert seen[0].name == "s7"
        assert seen[0].time == 2.0
        assert seen[0].state is BreakerState.OPEN
        assert seen[0].consecutive_failures == 1


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"failure_threshold": 0},
        {"recovery_timeout": 0.0},
        {"half_open_probes": 0},
    ])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CircuitBreaker(**kwargs)
