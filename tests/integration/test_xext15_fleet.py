"""XEXT15 smoke: the fleet scaling experiment end to end.

Runs the same shrunken configuration CI runs (``--smoke``): the whole
parallel path — fork, pickle, merged registries, identity check —
plus the BENCH_xext15.json artifact schema.
"""

import json

import pytest

from repro.artifact import export_json
from repro.experiments import fleet_experiment


@pytest.fixture(scope="module")
def result():
    return fleet_experiment(smoke=True)


def test_every_point_is_identical_to_the_serial_reference(result):
    assert result.points  # serial + at least one process point
    backends = {point.backend for point in result.points}
    assert backends == {"serial", "process"}
    assert all(point.identical for point in result.points)
    assert all(point.failures == 0 for point in result.points)


def test_two_serial_runs_agree(result):
    assert result.determinism_ok


def test_the_fleet_actually_delivered(result):
    assert result.emissions > 0
    assert 0.9 <= result.delivery_ratio <= 1.0
    assert result.delivered <= result.emissions


def test_real_time_factor_is_positive_everywhere(result):
    assert all(point.real_time_factor > 0.0 for point in result.points)
    assert result.best_speedup > 0.0


def test_bench_artifact_schema(result, tmp_path):
    path = export_json(result.record(), tmp_path / "BENCH_xext15.json")
    payload = json.loads(path.read_text())
    deterministic, wall_time = payload["deterministic"], payload["wall_time"]
    for key in ("num_rooms", "switches_per_room", "num_switches",
                "horizon", "nominal_emissions_per_second",
                "emissions", "delivered", "delivery_ratio",
                "determinism_ok", "points"):
        assert key in deterministic, key
    for key in ("cpu_count", "serial_wall_s", "points", "best_speedup"):
        assert key in wall_time, key
    assert wall_time["cpu_count"] >= 1  # the honesty anchor for speedup
    for key in ("num_shards", "backend", "workers", "identical", "failures"):
        assert key in deterministic["points"][0], key
    for key in ("wall_s", "speedup", "real_time_factor"):
        assert key in wall_time["points"][0], key
