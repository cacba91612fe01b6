"""Dispatch guardrails: admission pacing, breaker, retries, pickling."""

import functools
import os
import time

import pytest

from repro.fleet import (
    FleetDispatcher,
    FleetConfigError,
    FleetSpec,
    RoomSpec,
    ShardSpec,
)
from repro.infra import CircuitBreaker, TokenBucket

SHARDS = FleetSpec(num_rooms=4, switches_per_room=2).shard_specs(4)


class ManualTime:
    """Injectable clock + sleep pair: sleeping advances the clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self.slept: list[float] = []

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.slept.append(seconds)
        self.now += seconds


def _stub_runner(shard: ShardSpec) -> str:
    return f"report-{shard.shard_id}"


def test_admission_paces_dispatch_without_real_sleeping():
    time = ManualTime()
    dispatcher = FleetDispatcher(
        admission=TokenBucket(2.0, 1.0, name="test.fleet"),
        clock=time.clock, sleep=time.sleep,
    )
    reports, failures = dispatcher.run_serial(SHARDS, _stub_runner)
    assert reports == [f"report-{i}" for i in range(4)]
    assert not failures
    # burst of 1 admits the first shard at t=0; the remaining three wait
    # out the 2/s refill — ~0.5 s apart on the injected clock.
    assert time.slept  # pacing happened
    assert time.now == pytest.approx(1.5, abs=0.1)


def test_no_admission_means_no_pacing():
    time = ManualTime()
    dispatcher = FleetDispatcher(clock=time.clock, sleep=time.sleep)
    reports, _ = dispatcher.run_serial(SHARDS, _stub_runner)
    assert len(reports) == 4
    assert time.slept == []


def test_breaker_trips_on_poisoned_runner_and_fast_fails_the_rest():
    time = ManualTime()
    calls = []

    def poisoned(shard):
        calls.append(shard.shard_id)
        raise RuntimeError("poison")

    dispatcher = FleetDispatcher(
        breaker=CircuitBreaker("test.pool", failure_threshold=2,
                               recovery_timeout=60.0),
        max_attempts=1, clock=time.clock, sleep=time.sleep,
    )
    reports, failures = dispatcher.run_serial(SHARDS, poisoned)
    assert reports == []
    assert len(failures) == 4
    # two real executions trip the breaker; shards 2 and 3 never run
    assert calls == [0, 1]
    assert [f.fast_failed for f in failures] == [False, False, True, True]
    assert all("breaker" in f.error for f in failures if f.fast_failed)


def test_transient_failure_gets_one_retry():
    time = ManualTime()
    attempts = {}

    def flaky(shard):
        attempts[shard.shard_id] = attempts.get(shard.shard_id, 0) + 1
        if attempts[shard.shard_id] == 1 and shard.shard_id == 0:
            raise OSError("worker died")
        return f"report-{shard.shard_id}"

    dispatcher = FleetDispatcher(max_attempts=2,
                                 clock=time.clock, sleep=time.sleep)
    reports, failures = dispatcher.run_serial(SHARDS, flaky)
    assert len(reports) == 4
    assert not failures
    assert attempts[0] == 2  # failed once, retried, succeeded


def test_exhausted_attempts_become_a_counted_failure():
    time = ManualTime()

    def always_down(shard):
        if shard.shard_id == 1:
            raise OSError("worker keeps dying")
        return f"report-{shard.shard_id}"

    dispatcher = FleetDispatcher(
        breaker=CircuitBreaker("test.pool2", failure_threshold=10,
                               recovery_timeout=60.0),
        max_attempts=2, clock=time.clock, sleep=time.sleep,
    )
    reports, failures = dispatcher.run_serial(SHARDS, always_down)
    assert len(reports) == 3
    assert [f.shard_id for f in failures] == [1]
    assert failures[0].attempts == 2
    assert not failures[0].fast_failed


def test_unpicklable_shard_is_rejected_before_the_pool():
    shard = ShardSpec(shard_id=0, rooms=(
        RoomSpec(room_id=0, num_switches=2,
                 scene=lambda sim, channel, rng: None),
    ))
    dispatcher = FleetDispatcher()
    with pytest.raises(FleetConfigError, match="shard_id=0"):
        dispatcher.run((shard,), _stub_runner, workers=1)


def test_constructor_validation():
    with pytest.raises(ValueError, match="max_attempts"):
        FleetDispatcher(max_attempts=0)
    dispatcher = FleetDispatcher()
    with pytest.raises(ValueError, match="workers"):
        dispatcher.run(SHARDS, _stub_runner, workers=0)
    with pytest.raises(ValueError, match="shard_timeout"):
        dispatcher.run(SHARDS, _stub_runner, workers=1, shard_timeout=0.0)


# ----------------------------------------------------------------------
# process-level failure shapes (real pool, module-level workers)
# ----------------------------------------------------------------------

def _exit_once_runner(flag_dir: str, shard: ShardSpec) -> str:
    """Kills its worker with ``os._exit`` the first time shard 0 runs —
    the ungraceful death (OOM-kill, segfault) that breaks the whole
    ``ProcessPoolExecutor``, not just one future."""
    flag = os.path.join(flag_dir, f"died-{shard.shard_id}")
    if shard.shard_id == 0 and not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(11)
    return f"report-{shard.shard_id}"


def _hang_once_runner(flag_dir: str, shard: ShardSpec) -> str:
    """Wedges (sleeps far past any test deadline) the first time
    shard 0 runs — the hung-worker shape only a timeout can evict."""
    flag = os.path.join(flag_dir, f"hung-{shard.shard_id}")
    if shard.shard_id == 0 and not os.path.exists(flag):
        open(flag, "w").close()
        time.sleep(300.0)
    return f"report-{shard.shard_id}"


def test_broken_pool_becomes_counted_retry_and_one_rebuild(tmp_path):
    # Regression pin: a worker calling os._exit used to surface as an
    # uncaught BrokenProcessPool from wait(); now it is a failed
    # attempt (retried) plus exactly one pool rebuild per break.
    dispatcher = FleetDispatcher(
        breaker=CircuitBreaker("test.pool3", failure_threshold=10,
                               recovery_timeout=60.0),
        max_attempts=2,
    )
    runner = functools.partial(_exit_once_runner, str(tmp_path))
    reports, failures = dispatcher.run(SHARDS, runner, workers=2)
    assert sorted(reports) == [f"report-{i}" for i in range(4)]
    assert not failures
    assert dispatcher._m_rebuilds.value >= 1


def _exit_always_runner(shard: ShardSpec) -> str:
    if shard.shard_id == 0:
        os._exit(11)
    return f"report-{shard.shard_id}"


def test_broken_pool_exhausting_attempts_is_a_counted_failure():
    # A shard whose *every* attempt kills its worker must end as a
    # counted ShardFailure, never a crashed or hung run.
    dispatcher = FleetDispatcher(
        breaker=CircuitBreaker("test.pool4", failure_threshold=10,
                               recovery_timeout=60.0),
        max_attempts=2,
    )
    reports, failures = dispatcher.run(
        SHARDS, _exit_always_runner, workers=2)
    assert sorted(reports) == [f"report-{i}" for i in range(1, 4)]
    assert [f.shard_id for f in failures] == [0]
    assert failures[0].attempts == 2
    assert "BrokenProcessPool" in failures[0].error or "broken" in \
        failures[0].error.lower()


def _exit_beside_co_runner(flag_dir: str, shard: ShardSpec) -> str:
    """Shard 0 kills its worker while shard 1 is still running, every
    time; shard 1 dawdles on its first attempt so the break catches it
    in flight."""
    started = os.path.join(flag_dir, "co-runner-started")
    if shard.shard_id == 1 and not os.path.exists(started):
        open(started, "w").close()
        time.sleep(1.0)
    if shard.shard_id == 0:
        deadline = time.monotonic() + 10.0
        while not os.path.exists(started) and time.monotonic() < deadline:
            time.sleep(0.01)
        os._exit(11)
    return f"report-{shard.shard_id}"


def test_break_with_co_runner_charges_only_the_lone_offender(tmp_path):
    # Regression pin for the co-runner flake: one break dooms shards 0
    # and 1 together.  Neither is charged; both re-run alone, where
    # shard 0 breaks the pool by itself (charged, and with one attempt
    # allowed, failed) and shard 1 completes.
    dispatcher = FleetDispatcher(
        breaker=CircuitBreaker("test.pool6", failure_threshold=10,
                               recovery_timeout=60.0),
        max_attempts=1,
    )
    runner = functools.partial(_exit_beside_co_runner, str(tmp_path))
    reports, failures = dispatcher.run(SHARDS, runner, workers=2)
    assert sorted(reports) == [f"report-{i}" for i in range(1, 4)]
    assert [f.shard_id for f in failures] == [0]
    assert failures[0].attempts == 1
    assert dispatcher._m_casualties.value == 2
    assert dispatcher._m_rebuilds.value == 2


def test_hung_worker_is_timed_out_killed_and_retried(tmp_path):
    # Without shard_timeout this run would block forever on wait();
    # with it, the wedged worker is killed, counted, and the shard's
    # retry (which does not hang) completes the run.
    dispatcher = FleetDispatcher(
        breaker=CircuitBreaker("test.pool5", failure_threshold=10,
                               recovery_timeout=60.0),
        max_attempts=2,
    )
    runner = functools.partial(_hang_once_runner, str(tmp_path))
    start = time.monotonic()
    reports, failures = dispatcher.run(
        SHARDS, runner, workers=2, shard_timeout=1.0)
    wall = time.monotonic() - start
    assert sorted(reports) == [f"report-{i}" for i in range(4)]
    assert not failures
    assert dispatcher._m_timed_out.value == 1
    assert dispatcher._m_rebuilds.value >= 1
    assert wall < 60.0  # evicted the hang, did not sit out the sleep
