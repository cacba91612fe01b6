"""Property test: the exactness contract over *random* fault schedules.

For any fault mix the supervisor recovers from (progress guaranteed
because ``max_attempts`` exceeds the plan's ``max_faulty_attempts``),
the supervised report must agree with the fault-free serial reference
on the full identity signature — and therefore on ``delivered`` /
``emissions`` — exactly.  Hypothesis drives rates, seeds and shard
counts; the straggler delay is kept at zero so hundreds of examples
cost simulation time, not wall-clock sleeping.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.faults.process import ProcessFaultPlan  # noqa: E402
from repro.fleet import FleetSpec, SupervisorPolicy, run_fleet  # noqa: E402

SPEC = FleetSpec(num_rooms=3, switches_per_room=2, horizon=0.25, seed=17)

_REFERENCE_CACHE: dict = {}


def _reference():
    if "sig" not in _REFERENCE_CACHE:
        report = run_fleet(SPEC, backend="serial")
        _REFERENCE_CACHE["sig"] = report.identity_signature()
        _REFERENCE_CACHE["delivered"] = report.delivered
        _REFERENCE_CACHE["emissions"] = report.emissions
    return _REFERENCE_CACHE


rates = st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0])


@settings(max_examples=25, deadline=None)
@given(
    crash_rate=rates,
    poison_rate=rates,
    duplicate_rate=rates,
    max_faulty=st.integers(min_value=0, max_value=2),
    num_shards=st.integers(min_value=1, max_value=3),
    fault_seed=st.integers(min_value=0, max_value=10_000),
)
def test_any_recoverable_schedule_recovers_exactly(
        crash_rate, poison_rate, duplicate_rate, max_faulty, num_shards,
        fault_seed):
    plan = ProcessFaultPlan(
        crash_rate=crash_rate,
        poison_rate=poison_rate,
        duplicate_rate=duplicate_rate,
        max_faulty_attempts=max_faulty,
    )
    policy = SupervisorPolicy(
        max_attempts=max_faulty + 2,      # a clean attempt always exists
        quarantine_threshold=max_faulty + 2,  # quarantine out of reach
    )
    report = run_fleet(
        SPEC, num_shards=num_shards, backend="serial", faults=plan,
        policy=policy, seed=fault_seed,
    )
    ref = _reference()
    assert not report.failures
    assert report.delivered == ref["delivered"]
    assert report.emissions == ref["emissions"]
    assert report.identity_signature() == ref["sig"]
