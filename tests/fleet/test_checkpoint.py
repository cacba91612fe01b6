"""Checkpoint spill: exact round-trips, torn-write paranoia."""

import pickle

import pytest

from repro.fleet import (
    FleetSpec,
    ShardJob,
    merge_fleet_metrics,
    run_room,
    run_shard_job,
)
from repro.fleet.checkpoint import (
    MAGIC,
    CheckpointError,
    CheckpointStore,
    _frame,
    _unframe,
    checkpoint_roundtrip_exact,
)

SPEC = FleetSpec(num_rooms=2, switches_per_room=3, horizon=1.0, seed=17)
SHARD = SPEC.shard_specs(1)[0]


@pytest.fixture(scope="module")
def rooms():
    return [run_room(room_spec) for room_spec in SHARD.rooms]


def test_room_report_round_trips_exactly(rooms):
    # The exactness contract's foundation: spill + load is identity.
    for room in rooms:
        assert checkpoint_roundtrip_exact(room)


def test_shard_report_pickle_preserves_registry_merge_order(rooms):
    # ShardReport crosses the process boundary whole; its rooms and
    # their registries, which the driver merges in room order, must
    # survive exactly, not just approximately.
    report = run_shard_job(ShardJob(shard=SHARD))
    clone = pickle.loads(pickle.dumps(report, pickle.HIGHEST_PROTOCOL))
    assert clone.shard_id == report.shard_id
    assert (repr(merge_fleet_metrics([clone]).snapshot())
            == repr(merge_fleet_metrics([report]).snapshot()))
    assert ([room.identity_signature() for room in clone.rooms]
            == [room.identity_signature() for room in report.rooms])


def test_save_load_round_trip(tmp_path, rooms):
    store = CheckpointStore(tmp_path)
    for room in rooms:
        store.save_room(SHARD.shard_id, room)
    loaded = store.load_rooms(SHARD.shard_id)
    assert sorted(loaded) == [room.room_id for room in rooms]
    for room in rooms:
        assert (loaded[room.room_id].identity_signature()
                == room.identity_signature())


def test_truncated_spill_is_discarded_not_half_loaded(tmp_path, rooms):
    store = CheckpointStore(tmp_path)
    path = store.save_room(SHARD.shard_id, rooms[0])
    blob = path.read_bytes()
    # Tear the write at every interesting boundary: mid-magic,
    # mid-header, mid-payload.
    for cut in (3, len(MAGIC) + 4, len(blob) // 2, len(blob) - 1):
        path.write_bytes(blob[:cut])
        loaded = store.load_rooms(SHARD.shard_id)
        assert loaded == {}, f"cut at {cut} was half-loaded"
        assert not path.exists(), f"cut at {cut} was not discarded"
        path.write_bytes(blob)  # restore for the next cut
    # Untorn file still loads after all that.
    assert rooms[0].room_id in store.load_rooms(SHARD.shard_id)


def test_corrupt_payload_and_bad_magic_are_discarded(tmp_path, rooms):
    store = CheckpointStore(tmp_path)
    path = store.save_room(SHARD.shard_id, rooms[0])
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0xFF  # flip a payload bit: crc must catch it
    path.write_bytes(bytes(blob))
    assert store.load_rooms(SHARD.shard_id) == {}
    path2 = store.save_room(SHARD.shard_id, rooms[0])
    path2.write_bytes(b"JUNKFILE" + b"\x00" * 64)
    assert store.load_rooms(SHARD.shard_id) == {}


def test_wrong_type_payload_is_discarded(tmp_path, rooms):
    store = CheckpointStore(tmp_path)
    path = store.save_room(SHARD.shard_id, rooms[0])
    path.write_bytes(_frame(pickle.dumps({"not": "a RoomReport"})))
    assert store.load_rooms(SHARD.shard_id) == {}
    assert not path.exists()


def test_unframe_error_messages():
    with pytest.raises(CheckpointError, match="bad magic"):
        _unframe(b"nope", "t")
    with pytest.raises(CheckpointError, match="truncated header"):
        _unframe(MAGIC + b"\x00\x03", "t")
    framed = _frame(b"payload")
    with pytest.raises(CheckpointError, match="torn write"):
        _unframe(framed[:-2], "t")
    assert _unframe(framed, "t") == b"payload"


def test_atomic_write_leaves_no_tmp_droppings(tmp_path, rooms):
    store = CheckpointStore(tmp_path)
    store.save_room(SHARD.shard_id, rooms[0])
    leftovers = [p for p in tmp_path.rglob("*") if ".tmp" in p.name]
    assert leftovers == []


def test_discard_and_clear(tmp_path, rooms):
    store = CheckpointStore(tmp_path)
    for room in rooms:
        store.save_room(SHARD.shard_id, room)
    store.discard_shard(SHARD.shard_id)
    assert store.load_rooms(SHARD.shard_id) == {}
    for room in rooms:
        store.save_room(SHARD.shard_id, room)
    store.clear()
    assert store.load_rooms(SHARD.shard_id) == {}
    assert list(tmp_path.glob("shard*")) == []
