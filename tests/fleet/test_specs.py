"""Fleet spec validation, partitioning, and pickling."""

import pickle

import pytest

from repro.fleet import FleetConfigError, FleetSpec, RoomSpec, ShardSpec


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

def test_room_spec_rejects_blurred_onsets():
    # 0.08 s tone at 10 Hz leaves a 0.02 s gap < two 1/30 s windows.
    with pytest.raises(FleetConfigError, match="blur"):
        RoomSpec(room_id=0, num_switches=4, tone_duration=0.08)


def test_room_spec_rejects_band_overflow():
    with pytest.raises(FleetConfigError, match="speaker envelope"):
        RoomSpec(room_id=0, num_switches=100, guard_hz=120.0)


@pytest.mark.parametrize("kwargs", [
    {"room_id": -1, "num_switches": 4},
    {"room_id": 0, "num_switches": 0},
    {"room_id": 0, "num_switches": 4, "horizon": 0.0},
    {"room_id": 0, "num_switches": 4, "emission_rate_hz": -1.0},
])
def test_room_spec_rejects_bad_scalars(kwargs):
    with pytest.raises(FleetConfigError):
        RoomSpec(**kwargs)


def test_shard_spec_needs_rooms():
    with pytest.raises(FleetConfigError, match="at least one room"):
        ShardSpec(shard_id=0, rooms=())


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------

def test_room_specs_carry_shared_knobs():
    fleet = FleetSpec(num_rooms=3, switches_per_room=5, seed=42,
                      horizon=0.7, guard_hz=150.0)
    rooms = fleet.room_specs()
    assert [room.room_id for room in rooms] == [0, 1, 2]
    assert all(room.fleet_seed == 42 for room in rooms)
    assert all(room.horizon == 0.7 for room in rooms)
    assert all(room.guard_hz == 150.0 for room in rooms)
    assert fleet.num_switches == 15
    assert fleet.nominal_emissions_per_second == 150.0


@pytest.mark.parametrize("num_rooms,num_shards", [
    (10, 1), (10, 2), (10, 3), (10, 10), (7, 4),
])
def test_shard_partition_is_contiguous_and_balanced(num_rooms, num_shards):
    fleet = FleetSpec(num_rooms=num_rooms, switches_per_room=2)
    shards = fleet.shard_specs(num_shards)
    assert len(shards) == num_shards
    flat = [room.room_id for shard in shards for room in shard.rooms]
    assert flat == list(range(num_rooms))  # contiguous, global order
    sizes = [len(shard.rooms) for shard in shards]
    assert max(sizes) - min(sizes) <= 1


def test_shard_count_bounds():
    fleet = FleetSpec(num_rooms=4, switches_per_room=2)
    with pytest.raises(FleetConfigError):
        fleet.shard_specs(0)
    with pytest.raises(FleetConfigError):
        fleet.shard_specs(5)


# ----------------------------------------------------------------------
# pickling
# ----------------------------------------------------------------------

def test_every_fleet_spec_kind_round_trips_through_pickle():
    fleet = FleetSpec(num_rooms=2, switches_per_room=3)
    for obj in (fleet, fleet.room_specs()[0], fleet.shard_specs(2)[0]):
        clone = pickle.loads(pickle.dumps(obj))
        assert clone == obj
