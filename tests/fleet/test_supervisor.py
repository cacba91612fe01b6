"""The fleet loop: exact recovery under every injected fault shape."""

import pytest

from repro.faults.process import PoisonedShardReport, ProcessFaultPlan
from repro.fleet import (
    FleetSpec,
    ShardReport,
    SupervisorPolicy,
    run_fleet,
    validate_shard_report,
)

SPEC = FleetSpec(num_rooms=4, switches_per_room=2, horizon=0.5, seed=17)


@pytest.fixture(scope="module")
def reference():
    return run_fleet(SPEC, backend="serial").identity_signature()


def _policy(**overrides):
    defaults = dict(max_attempts=6, quarantine_threshold=10)
    defaults.update(overrides)
    return SupervisorPolicy(**defaults)


# ----------------------------------------------------------------------
# fault-free: every shard count and backend, bit for bit
# ----------------------------------------------------------------------

def test_fault_free_run_counts_one_attempt_per_shard():
    stats = run_fleet(SPEC, num_shards=2, backend="serial").supervisor
    assert stats.attempts_total == 2
    assert stats.backend == "serial"
    recovery = [value for name, value in vars(stats).items()
                if name not in ("backend", "workers", "attempts_total")]
    assert recovery and all(value == 0 for value in recovery)


def test_clean_supervised_serial_is_bit_identical(reference):
    report = run_fleet(SPEC, num_shards=2, backend="serial")
    assert report.identity_signature() == reference
    assert report.supervisor.attempts_total == 2
    assert report.supervisor.crashes_detected == 0
    assert not report.failures


def test_clean_supervised_process_is_bit_identical(reference):
    report = run_fleet(SPEC, num_shards=2, backend="process",
                       workers=2)
    assert report.identity_signature() == reference
    assert not report.failures


# ----------------------------------------------------------------------
# crash recovery (soft + hard), checkpoint resume
# ----------------------------------------------------------------------

def test_soft_crashes_recover_exactly_serial(reference):
    plan = ProcessFaultPlan(crash_rate=1.0, max_faulty_attempts=1)
    report = run_fleet(SPEC, num_shards=2, backend="serial",
                       faults=plan, policy=_policy())
    assert not report.failures
    assert report.identity_signature() == reference
    stats = report.supervisor
    # Every shard crashed on attempts 0 and 1, succeeded on attempt 2.
    assert stats.crashes_detected == 4
    assert stats.attempts_total == 6
    assert stats.retries_scheduled == 4


def test_checkpoint_resume_skips_finished_rooms(reference, tmp_path):
    # Both shards die mid-shard once; the retry must resume the rooms
    # the corpse already spilled rather than recompute them.
    plan = ProcessFaultPlan(crash_rate=1.0, max_faulty_attempts=0)
    report = run_fleet(SPEC, num_shards=2, backend="serial",
                       faults=plan, policy=_policy(),
                       checkpoint_dir=str(tmp_path))
    assert not report.failures
    assert report.identity_signature() == reference
    assert report.supervisor.rooms_resumed >= 1
    resumed_attempts = [shard.attempt for shard in report.shards]
    assert all(attempt == 1 for attempt in resumed_attempts)


def test_checkpointing_can_be_disabled(reference):
    plan = ProcessFaultPlan(crash_rate=1.0, max_faulty_attempts=0)
    report = run_fleet(
        SPEC, num_shards=2, backend="serial", faults=plan,
        policy=_policy(), checkpoint_dir=None)
    assert not report.failures
    assert report.identity_signature() == reference
    assert report.supervisor.rooms_resumed == 0


def test_hard_crashes_break_and_rebuild_the_pool_exactly(reference):
    plan = ProcessFaultPlan(crash_rate=1.0, hard_crash=True,
                            max_faulty_attempts=0)
    report = run_fleet(SPEC, num_shards=2, backend="process",
                       workers=2, faults=plan, policy=_policy())
    assert not report.failures
    assert report.identity_signature() == reference
    stats = report.supervisor
    assert stats.crashes_detected >= 1
    assert stats.pool_rebuilds >= 1


# ----------------------------------------------------------------------
# poison + duplicates
# ----------------------------------------------------------------------

def test_poisoned_reports_are_rejected_never_merged(reference):
    plan = ProcessFaultPlan(poison_rate=1.0, max_faulty_attempts=1)
    report = run_fleet(SPEC, num_shards=2, backend="serial",
                       faults=plan, policy=_policy())
    assert not report.failures
    assert report.identity_signature() == reference
    assert report.supervisor.poisoned_reports == 4


def test_duplicate_deliveries_are_deduped_serial(reference):
    plan = ProcessFaultPlan(duplicate_rate=1.0, max_faulty_attempts=0)
    report = run_fleet(SPEC, num_shards=2, backend="serial",
                       faults=plan, policy=_policy())
    assert not report.failures
    assert report.identity_signature() == reference
    stats = report.supervisor
    assert stats.duplicates_injected == 2
    assert stats.duplicates_dropped == 2


def test_duplicate_deliveries_are_deduped_process(reference):
    plan = ProcessFaultPlan(duplicate_rate=1.0, max_faulty_attempts=0)
    report = run_fleet(SPEC, num_shards=2, backend="process",
                       workers=2, faults=plan, policy=_policy())
    assert not report.failures
    assert report.identity_signature() == reference
    stats = report.supervisor
    assert stats.duplicates_injected == 2
    assert stats.duplicates_dropped == 2


# ----------------------------------------------------------------------
# stragglers + hedging
# ----------------------------------------------------------------------

def test_stragglers_get_hedged_and_results_stay_exact(reference):
    plan = ProcessFaultPlan(straggler_rate=1.0, straggler_delay_s=0.8,
                            max_faulty_attempts=0)
    report = run_fleet(
        SPEC, num_shards=2, backend="process", workers=3, faults=plan,
        policy=_policy(hedge_after_s=0.15))
    assert not report.failures
    assert report.identity_signature() == reference
    stats = report.supervisor
    assert stats.stragglers_hedged >= 1
    # First result wins; whatever lost the race was counted, not merged.
    assert (stats.hedges_wasted + stats.late_results_dropped
            >= 0)


def test_hedges_wait_for_a_free_worker(reference):
    # In-flight work is capped at the pool width: with its one worker
    # busy, a hedge could only queue behind the straggler it races.
    plan = ProcessFaultPlan(straggler_rate=1.0, straggler_delay_s=0.5,
                            max_faulty_attempts=0)
    report = run_fleet(
        SPEC, num_shards=1, backend="process", workers=1, faults=plan,
        policy=_policy(hedge_after_s=0.1))
    assert not report.failures
    assert report.identity_signature() == reference
    assert report.supervisor.stragglers_hedged == 0
    assert report.supervisor.attempts_total == 1


def test_deadline_kills_a_wedged_attempt_and_recovers(reference):
    # A straggler sleeping far past the deadline is indistinguishable
    # from a hang; the supervisor must kill it and retry (attempt 1
    # runs clean), not wait out the sleep.
    plan = ProcessFaultPlan(straggler_rate=1.0, straggler_delay_s=120.0,
                            max_faulty_attempts=0)
    report = run_fleet(
        SPEC, num_shards=2, backend="process", workers=2, faults=plan,
        policy=_policy(hedge_after_s=None, shard_deadline_s=0.5))
    assert not report.failures
    assert report.identity_signature() == reference
    stats = report.supervisor
    assert stats.deadline_kills >= 1
    assert stats.pool_rebuilds >= 1


# ----------------------------------------------------------------------
# bounded give-up: quarantine and attempt budgets
# ----------------------------------------------------------------------

def test_repeat_offender_is_quarantined():
    plan = ProcessFaultPlan(crash_rate=1.0, max_faulty_attempts=50)
    report = run_fleet(
        SPEC, num_shards=2, backend="serial", faults=plan,
        policy=_policy(max_attempts=50, quarantine_threshold=2))
    assert len(report.failures) == 2
    assert all(f.quarantined for f in report.failures)
    assert all(f.attempts == 2 for f in report.failures)
    assert report.supervisor.shards_quarantined == 2
    # The healthy half of nothing: no shard reports at all here, but
    # the run still returned a well-formed report.
    assert report.shards == []


def test_attempt_budget_exhaustion_is_a_counted_failure():
    plan = ProcessFaultPlan(crash_rate=1.0, max_faulty_attempts=50)
    report = run_fleet(
        SPEC, num_shards=2, backend="serial", faults=plan,
        policy=_policy(max_attempts=2, quarantine_threshold=50))
    assert len(report.failures) == 2
    assert all(not f.quarantined for f in report.failures)
    assert all(f.attempts == 2 for f in report.failures)


def test_process_backend_gives_up_boundedly_too():
    plan = ProcessFaultPlan(crash_rate=1.0, max_faulty_attempts=50)
    report = run_fleet(
        SPEC, num_shards=2, backend="process", workers=2, faults=plan,
        policy=_policy(max_attempts=2, quarantine_threshold=50))
    assert len(report.failures) == 2
    assert report.shards == []


# ----------------------------------------------------------------------
# validation + policy guards
# ----------------------------------------------------------------------

def test_validate_shard_report_rejects_poison_and_mismatches():
    shard = SPEC.shard_specs(2)[0]
    assert validate_shard_report(PoisonedShardReport(shard_id=0), shard)
    assert validate_shard_report("garbage", shard)
    real = run_fleet(SPEC, num_shards=2,
                      backend="serial").shards[0]
    assert validate_shard_report(real, shard) is None
    wrong_shard = SPEC.shard_specs(2)[1]
    assert validate_shard_report(real, wrong_shard)
    hollow = ShardReport(shard_id=shard.shard_id, rooms=[],
                         metrics=real.metrics)
    assert "room set mismatch" in validate_shard_report(hollow, shard)


def test_policy_validation():
    with pytest.raises(ValueError, match="max_attempts"):
        SupervisorPolicy(max_attempts=0)
    with pytest.raises(ValueError, match="hedge_after_s"):
        SupervisorPolicy(hedge_after_s=0.0)
    with pytest.raises(ValueError, match="shard_deadline_s"):
        SupervisorPolicy(shard_deadline_s=-1.0)
    with pytest.raises(ValueError, match="quarantine_threshold"):
        SupervisorPolicy(quarantine_threshold=0)
    with pytest.raises(ValueError, match="backend"):
        run_fleet(SPEC, backend="quantum")
