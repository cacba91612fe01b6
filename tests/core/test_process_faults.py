"""Unit tests for the process-level (worker) fault model."""

import pickle

import pytest

from repro.faults.process import (
    PoisonedShardReport,
    ProcessFaultPlan,
    ShardFaultDecision,
    SimulatedWorkerCrash,
    crash_now,
    shard_fault_decision,
)
from repro.fleet import FleetSpec
from repro.fleet.worker import ShardJob

PLAN = ProcessFaultPlan(crash_rate=0.4, straggler_rate=0.3,
                        poison_rate=0.2, duplicate_rate=0.2)


class TestDecisionDeterminism:
    def test_same_inputs_same_fate(self):
        for shard_id in range(6):
            for attempt in range(4):
                a = shard_fault_decision(PLAN, 17, shard_id, attempt)
                b = shard_fault_decision(PLAN, 17, shard_id, attempt)
                assert a == b

    def test_attempts_have_independent_fates(self):
        fates = {shard_fault_decision(PLAN, 17, 0, attempt)
                 for attempt in range(3)}
        # With 5 fresh draws per attempt, identical fates across all
        # three early attempts would mean the blocks are not advancing.
        assert len(fates) > 1 or not any(f.crash or f.straggle or f.poison
                                         or f.duplicate for f in fates)

    def test_earlier_attempts_fate_is_stable_under_later_queries(self):
        # Attempt 1's fate must not depend on whether attempt 3 was
        # ever asked about (fixed-width blocks, stable offsets).
        first = shard_fault_decision(PLAN, 17, 2, 1)
        shard_fault_decision(PLAN, 17, 2, 3)
        assert shard_fault_decision(PLAN, 17, 2, 1) == first

    def test_shards_have_independent_streams(self):
        fates = [shard_fault_decision(
            ProcessFaultPlan(crash_rate=0.5), 17, shard_id, 0).crash
            for shard_id in range(32)]
        assert any(fates) and not all(fates)

    def test_disabled_plan_is_clean_and_drawless(self):
        assert shard_fault_decision(None, 17, 0, 0).clean
        assert shard_fault_decision(ProcessFaultPlan(), 17, 0, 0).clean

    def test_attempts_past_max_faulty_run_clean(self):
        plan = ProcessFaultPlan(crash_rate=1.0, max_faulty_attempts=1)
        assert shard_fault_decision(plan, 17, 0, 0).crash
        assert shard_fault_decision(plan, 17, 0, 1).crash
        assert shard_fault_decision(plan, 17, 0, 2).clean
        assert shard_fault_decision(plan, 17, 0, 99).clean

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError, match="attempt"):
            shard_fault_decision(PLAN, 17, 0, -1)


class TestPlanValidation:
    def test_rates_must_be_probabilities(self):
        for kw in ("crash_rate", "straggler_rate", "poison_rate",
                   "duplicate_rate"):
            with pytest.raises(ValueError, match=kw):
                ProcessFaultPlan(**{kw: 1.5})

    def test_delay_and_budget_bounds(self):
        with pytest.raises(ValueError, match="straggler_delay_s"):
            ProcessFaultPlan(straggler_delay_s=-0.1)
        with pytest.raises(ValueError, match="max_faulty_attempts"):
            ProcessFaultPlan(max_faulty_attempts=-1)

    def test_active_property(self):
        assert not ProcessFaultPlan().active
        assert ProcessFaultPlan(crash_rate=0.1).active
        assert ProcessFaultPlan(duplicate_rate=0.1).active


class TestCrashShapes:
    def test_soft_crash_raises(self):
        with pytest.raises(SimulatedWorkerCrash):
            crash_now(hard=False)

    def test_crash_after_rooms_costs_something(self):
        always = ShardFaultDecision(crash=True, crash_after_fraction=0.999)
        assert always.crash_after_rooms(10) == 9  # never "all done"
        assert always.crash_after_rooms(1) == 0
        early = ShardFaultDecision(crash=True, crash_after_fraction=0.0)
        assert early.crash_after_rooms(10) == 0
        assert ShardFaultDecision().crash_after_rooms(10) is None


class TestPicklability:
    def test_plan_and_job_cross_the_process_boundary(self):
        shard = FleetSpec(num_rooms=2, switches_per_room=2).shard_specs(1)[0]
        job = ShardJob(shard=shard, attempt=1, seed=17, faults=PLAN,
                       checkpoint_dir="/tmp/nowhere", hard_crash_ok=True)
        assert pickle.loads(pickle.dumps(PLAN)) == PLAN
        clone = pickle.loads(pickle.dumps(job))
        assert clone.faults == PLAN
        assert clone.attempt == 1

    def test_poison_is_deliberately_picklable(self):
        # An unpicklable poison would wedge the executor's result
        # thread itself; the poison we inject must *arrive* and then
        # fail validation.
        poison = PoisonedShardReport(shard_id=3)
        assert pickle.loads(pickle.dumps(poison)) == poison
