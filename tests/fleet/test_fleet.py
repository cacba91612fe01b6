"""The fleet driver: serial reference vs process pool, merged metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    FLEET_GAUGE_POLICY,
    FleetSpec,
    run_fleet,
)
from repro.obs import MetricsRegistry

#: Small fleet that still spans several rooms and shards.
SPEC = FleetSpec(num_rooms=4, switches_per_room=6, horizon=0.5)


@pytest.fixture(scope="module")
def serial():
    return run_fleet(SPEC, num_shards=1, backend="serial")


def test_serial_identity_is_stable_across_shard_counts(serial):
    for num_shards in (2, 4):
        resharded = run_fleet(SPEC, num_shards=num_shards, backend="serial")
        assert resharded.identity_signature() == serial.identity_signature()


def test_process_backend_matches_serial_reference(serial):
    fanned = run_fleet(SPEC, num_shards=2, backend="process", workers=2)
    assert fanned.identity_signature() == serial.identity_signature()
    assert not fanned.failures


def test_fleet_totals_roll_up_from_rooms(serial):
    rooms = serial.rooms
    assert [room.room_id for room in rooms] == [0, 1, 2, 3]
    assert serial.emissions == sum(room.emissions for room in rooms)
    assert serial.onsets == sum(room.onsets for room in rooms)
    assert serial.delivered == sum(room.delivered for room in rooms)
    snap = serial.metrics.snapshot()
    assert snap["fleet.rooms"]["value"] == SPEC.num_rooms
    assert snap["fleet.switches"]["value"] == SPEC.num_switches
    assert snap["fleet.emissions"]["value"] == serial.emissions
    assert snap["fleet.simulated_seconds"]["value"] == pytest.approx(
        SPEC.num_rooms * SPEC.horizon)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_any_partition_and_merge_order_gives_the_same_fleet_registry(
        serial, data):
    """Room registries cut into any shards and merged in any order, at
    both levels, give the leaf merge's snapshot byte for byte.  (The
    rooms' one float counter, ``fleet.simulated_seconds``, sums 0.5 s
    horizons exactly here; inexact float totals are why
    ``merge_fleet_metrics`` still merges leaves in room order.)"""
    rooms = data.draw(st.permutations(serial.rooms))
    cuts = sorted(data.draw(st.sets(st.integers(1, len(rooms) - 1))))
    shards = []
    for low, high in zip([0, *cuts], [*cuts, len(rooms)]):
        shard = MetricsRegistry()
        for room in rooms[low:high]:
            shard.merge(room.metrics, gauge_policy=FLEET_GAUGE_POLICY)
        shards.append(shard)
    merged = MetricsRegistry()
    for shard in data.draw(st.permutations(shards)):
        merged.merge(shard, gauge_policy=FLEET_GAUGE_POLICY)
    assert repr(merged.snapshot()) == repr(serial.metrics.snapshot())


def test_fleet_gauge_merges_with_peak_policy(serial):
    fleet_peak = serial.metrics.snapshot()["fleet.peak_tones_in_window"]
    room_peaks = [
        room.metrics.snapshot()["fleet.peak_tones_in_window"]["value"]
        for room in serial.rooms
    ]
    assert fleet_peak["value"] == max(room_peaks)


def test_real_time_factor_reports_simulated_seconds(serial):
    assert serial.simulated_seconds == pytest.approx(
        SPEC.num_rooms * SPEC.horizon)
    assert serial.real_time_factor > 0.0


def test_delivery_ratio_stays_in_unit_interval(serial):
    assert 0.0 <= serial.delivery_ratio <= 1.0
    assert serial.delivery_ratio >= 0.9  # clean fleet actually delivers


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="backend"):
        run_fleet(SPEC, backend="threads")


def test_zero_workers_rejected():
    for backend in ("serial", "process"):
        with pytest.raises(ValueError, match="workers"):
            run_fleet(SPEC, num_shards=2, backend=backend, workers=0)


def test_rooms_property_restores_global_order(serial):
    fanned = run_fleet(SPEC, num_shards=4, backend="serial")
    assert [room.room_id for room in fanned.rooms] == [0, 1, 2, 3]
