"""Dispatch guardrails on ``run_fleet``: retries, pool breaks, deadlines.

Each test fates one shard through a seeded :class:`ProcessFaultPlan`;
the fault seed (``run_fleet(seed=...)``) only picks the schedule, never
what a room computes, so every recovered run still matches the
fault-free serial reference.
"""

import time

import pytest

from repro.faults.process import ProcessFaultPlan
from repro.fleet import FleetSpec, SupervisorPolicy, run_fleet

SPEC = FleetSpec(num_rooms=4, switches_per_room=2, horizon=0.5, seed=17)


@pytest.fixture(scope="module")
def reference():
    return run_fleet(SPEC, backend="serial").identity_signature()


def _policy(max_attempts, **overrides):
    return SupervisorPolicy(max_attempts=max_attempts,
                            quarantine_threshold=10, **overrides)


def test_transient_failure_gets_one_retry(reference):
    # Fault seed 6 crashes shard 0's first attempt only.
    plan = ProcessFaultPlan(crash_rate=0.5, max_faulty_attempts=0)
    report = run_fleet(SPEC, num_shards=4, backend="serial", faults=plan,
                       policy=_policy(2), seed=6)
    assert not report.failures
    assert report.identity_signature() == reference
    # failed once, retried, succeeded
    assert [shard.attempt for shard in report.shards] == [1, 0, 0, 0]
    stats = report.supervisor
    assert stats.crashes_detected == 1
    assert stats.retries_scheduled == 1
    assert stats.attempts_total == 5


def test_exhausted_attempts_become_a_counted_failure(reference):
    # Fault seed 76 crashes every attempt of shard 1; the rest run clean.
    plan = ProcessFaultPlan(crash_rate=0.5, max_faulty_attempts=50)
    report = run_fleet(SPEC, num_shards=4, backend="serial", faults=plan,
                       policy=_policy(2), seed=76)
    assert [shard.shard_id for shard in report.shards] == [0, 2, 3]
    assert [f.shard_id for f in report.failures] == [1]
    assert report.failures[0].attempts == 2
    assert not report.failures[0].quarantined
    assert "exhausted" in report.failures[0].error


# ----------------------------------------------------------------------
# process-level failure shapes (real pool, os._exit and wedged workers)
# ----------------------------------------------------------------------

def test_broken_pool_becomes_counted_retry_and_one_rebuild(reference):
    # Regression pin: a worker calling os._exit (fault seed 6 fates
    # shard 0's first attempt to it) must surface as a failed attempt
    # that is retried plus a pool rebuild, never an uncaught
    # BrokenProcessPool.
    plan = ProcessFaultPlan(crash_rate=0.5, hard_crash=True,
                            max_faulty_attempts=0)
    report = run_fleet(SPEC, num_shards=4, backend="process", workers=2,
                       faults=plan, policy=_policy(2), seed=6)
    assert not report.failures
    assert report.identity_signature() == reference
    stats = report.supervisor
    assert stats.crashes_detected == 1
    assert stats.retries_scheduled == 1
    assert stats.pool_rebuilds >= 1


def test_broken_pool_exhausting_attempts_is_a_counted_failure(reference):
    # A shard whose *every* attempt kills its worker (fault seed 6
    # with no clean attempts left for shard 0) must end as a counted
    # ShardFailure, never a crashed or hung run.
    plan = ProcessFaultPlan(crash_rate=0.5, hard_crash=True,
                            max_faulty_attempts=50)
    report = run_fleet(SPEC, num_shards=4, backend="process", workers=2,
                       faults=plan, policy=_policy(2), seed=6)
    assert ([room.identity_signature() for room in report.rooms]
            == reference["rooms"][1:])
    assert [f.shard_id for f in report.failures] == [0]
    assert report.failures[0].attempts == 2
    assert "BrokenProcessPool" in report.failures[0].error


def test_break_with_co_runner_charges_only_the_lone_offender(reference):
    # Fault seed 288 fates shard 0's first attempt to os._exit at once
    # while shard 1's first attempt dawdles, so the break dooms both
    # together.  Neither is charged; both re-run alone, where shard 0
    # breaks the pool by itself (charged, and with one attempt
    # allowed, failed) and shard 1 completes.  Shards 2 and 3 run
    # clean and were never in flight when the pool broke.
    plan = ProcessFaultPlan(crash_rate=0.5, hard_crash=True,
                            straggler_rate=0.5, straggler_delay_s=0.5,
                            max_faulty_attempts=0)
    report = run_fleet(SPEC, num_shards=4, backend="process", workers=2,
                       faults=plan, policy=_policy(1), seed=288)
    assert [f.shard_id for f in report.failures] == [0]
    assert report.failures[0].attempts == 1
    assert ([room.identity_signature() for room in report.rooms]
            == reference["rooms"][1:])
    stats = report.supervisor
    assert stats.crashes_detected == 1
    assert stats.pool_rebuilds == 2


def test_hung_worker_is_timed_out_killed_and_retried(reference):
    # Fault seed 28 wedges shard 0's first attempt far past any test
    # deadline.  Without shard_deadline_s this run would sit out the
    # sleep; with it, the wedged worker is killed, counted, and the
    # shard's retry (which does not hang) completes the run.
    plan = ProcessFaultPlan(straggler_rate=0.5, straggler_delay_s=120.0,
                            max_faulty_attempts=0)
    start = time.monotonic()
    report = run_fleet(SPEC, num_shards=4, backend="process", workers=2,
                       faults=plan, policy=_policy(2, shard_deadline_s=2.0),
                       seed=28)
    wall = time.monotonic() - start
    assert not report.failures
    assert report.identity_signature() == reference
    stats = report.supervisor
    assert stats.deadline_kills == 1
    assert stats.pool_rebuilds >= 1
    assert wall < 60.0  # evicted the hang, did not sit out the sleep
