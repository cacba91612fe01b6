"""The public contract of :class:`DetectionEvent`.

Listeners, apps and the telemetry bus build and read these records by
field name and by position, compare them and use them as set members
and dict keys, so the field names and order, immutability and value
semantics are pinned here.  No experiment result holds one: the
artifact writer records a dataclass as a dict but a tuple as a list,
so an event inside a result would change shape on disk with the
record's type.
"""

import dataclasses
import json
import typing
from pathlib import Path

import pytest

from repro.artifact import Result
from repro.audio import DetectionEvent
from repro.cli import EXPERIMENTS  # noqa: F401  (imports every result type)
from repro.core.apps.heavy_hitter import HeavyHitterAlert

FIELDS = ("frequency", "measured_frequency", "level_db", "time")
GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "smoke.json"


def test_fields_by_name_and_position():
    event = DetectionEvent(700.0, 702.5, 61.0, 1.25)
    assert [getattr(event, name) for name in FIELDS] == [700.0, 702.5,
                                                          61.0, 1.25]
    assert DetectionEvent(**dict(zip(FIELDS, (700.0, 702.5, 61.0, 1.25)))) \
        == event
    with pytest.raises(TypeError):
        DetectionEvent(700.0, 702.5, 61.0, 1.25, 0.0)


def test_immutable():
    event = DetectionEvent(700.0, 702.5, 61.0, 1.25)
    for name in FIELDS:
        with pytest.raises(AttributeError):
            setattr(event, name, 0.0)
    with pytest.raises(AttributeError):
        event.extra = 1


def test_equality_and_hash_by_value():
    event = DetectionEvent(700.0, 702.5, 61.0, 1.25)
    twin = DetectionEvent(700.0, 702.5, 61.0, 1.25)
    assert event == twin and event is not twin
    assert hash(event) == hash(twin)
    assert len({event, twin}) == 1
    for index in range(len(FIELDS)):
        values = [700.0, 702.5, 61.0, 1.25]
        values[index] += 1.0
        assert DetectionEvent(*values) != event


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _reachable_types(hint, seen):
    """Every type named by ``hint``, its type arguments and, for
    dataclasses, the hints of their fields."""
    if isinstance(hint, type) and hint in seen:
        return
    if isinstance(hint, type):
        seen.add(hint)
    for arg in typing.get_args(hint):
        _reachable_types(arg, seen)
    if dataclasses.is_dataclass(hint):
        for field_hint in typing.get_type_hints(hint).values():
            _reachable_types(field_hint, seen)


def test_no_experiment_result_holds_events():
    seen: set = set()
    for result in _subclasses(Result):
        _reachable_types(result, seen)
    assert HeavyHitterAlert in seen  # the walk reaches nested records
    assert DetectionEvent not in seen

    def event_dicts(value):
        if isinstance(value, dict):
            if set(value) == set(FIELDS):
                yield value
            for item in value.values():
                yield from event_dicts(item)
        elif isinstance(value, list):
            for item in value:
                yield from event_dicts(item)

    assert list(event_dicts(json.loads(GOLDEN.read_text()))) == []
