"""Property tests for the unified retry policy.

The schedule is the one retransmission timeline every layer shares, so
the invariants are checked over the whole parameter space: retry times
are strictly increasing, nothing is ever scheduled at or past the
deadline, and seeded jitter is reproducible.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.infra import RetryPolicy

MAX_WALK = 500

policies = st.builds(
    lambda initial, cap_factor, backoff, deadline, jitter: RetryPolicy(
        initial_timeout=initial,
        backoff=backoff,
        max_timeout=initial * cap_factor,
        deadline=deadline,
        jitter=jitter,
    ),
    initial=st.floats(min_value=1e-3, max_value=1.0),
    cap_factor=st.floats(min_value=1.0, max_value=32.0),
    backoff=st.floats(min_value=1.0, max_value=4.0),
    deadline=st.floats(min_value=1e-2, max_value=30.0),
    jitter=st.floats(min_value=0.0, max_value=0.95),
)

starts = st.floats(min_value=0.0, max_value=1e4)
seeds = st.integers(min_value=0, max_value=2**31)


def _walk(policy: RetryPolicy, start: float, seed: int | None = None):
    """Every retry time the schedule yields when each retry fires
    exactly when planned (the ARQ sender's usage pattern)."""
    schedule = policy.schedule(start, seed=seed)
    times, now = [], start
    while len(times) < MAX_WALK:
        retry_at = schedule.next_retry(now)
        if retry_at is None:
            break
        times.append(retry_at)
        now = retry_at
    return schedule, times


class TestScheduleProperties:
    @given(policy=policies, start=starts, seed=seeds)
    def test_retry_times_strictly_increase(self, policy, start, seed):
        _, times = _walk(policy, start, seed)
        assert all(later > earlier
                   for earlier, later in zip(times, times[1:]))
        assert all(t > start for t in times)

    @given(policy=policies, start=starts, seed=seeds)
    def test_never_at_or_past_deadline(self, policy, start, seed):
        schedule, times = _walk(policy, start, seed)
        assert schedule.deadline == start + policy.deadline
        assert all(t < schedule.deadline for t in times)
        assert schedule.retries_planned == len(times)

    @given(policy=policies, start=starts, seed=seeds)
    def test_identical_seeds_identical_schedules(self, policy, start, seed):
        _, first = _walk(policy, start, seed)
        _, second = _walk(policy, start, seed)
        assert first == second

    @given(policy=policies, start=starts)
    def test_unseeded_jitter_defaults_deterministic(self, policy, start):
        """No seed at all still means a reproducible stream (seed 0)."""
        _, unseeded = _walk(policy, start, None)
        _, zero = _walk(policy, start, 0)
        assert unseeded == zero

    @given(policy=policies, start=starts, seed=seeds)
    def test_jitter_only_shrinks_delays(self, policy, start, seed):
        """Jitter decorrelates by shrinking waits, never stretching
        them: each jittered delay fits under the closed-form delay."""
        schedule = policy.schedule(start, seed=seed)
        now = start
        for attempt in range(MAX_WALK):
            retry_at = schedule.next_retry(now)
            if retry_at is None:
                break
            assert retry_at - now <= policy.delay(attempt) + 1e-12
            now = retry_at


class TestClosedForm:
    @given(policy=policies, start=starts)
    def test_walk_matches_delay_closed_form(self, policy, start):
        unjittered = RetryPolicy(policy.initial_timeout, policy.backoff,
                                 policy.max_timeout, policy.deadline)
        _, times = _walk(unjittered, start)
        expected = start
        for attempt, actual in enumerate(times):
            expected += unjittered.delay(attempt)
            assert actual == pytest.approx(expected)

    def test_delay_caps_at_max_timeout(self):
        policy = RetryPolicy(0.05, 2.0, 0.5, 2.0)
        assert [policy.delay(a) for a in range(6)] == [
            0.05, 0.1, 0.2, 0.4, 0.5, 0.5]
        with pytest.raises(ValueError):
            policy.delay(-1)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"initial_timeout": 0.0},
        {"initial_timeout": -0.1},
        {"backoff": 0.9},
        {"max_timeout": 0.01},
        {"deadline": 0.0},
        {"jitter": -0.1},
        {"jitter": 1.0},
    ])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_arq_default_schedule_pinned(self):
        """The defaults are the ARQ wire schedule: retries at +0.05,
        +0.15, +0.35, +0.75, +1.25, +1.75, expiry at +2.0."""
        _, times = _walk(RetryPolicy(), 10.0)
        assert times == pytest.approx(
            [10.05, 10.15, 10.35, 10.75, 11.25, 11.75])
