"""Pinned figures: every experiment's deterministic record under ``--smoke``.

``tests/golden/smoke.json`` maps each CLI experiment to the
deterministic half of its ``record()`` (the fields marked ``WALL_TIME``
left out), so any figure number that drifts fails here with the path
of the value that moved.  Floats compare at a relative tolerance of
1e-9 (numpy is not pinned); the absolute floor is 1e-9 of the largest
magnitude in the enclosing list, so FFT round-off near zero does not
count as a change.

A change that moves a figure on purpose regenerates the file with
``make golden`` and lists each changed value in CHANGES.md.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import pytest

from repro.artifact import export_json
from repro.cli import EXPERIMENTS, build_parser

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "smoke.json"


def smoke_records() -> dict:
    """Each experiment's deterministic record, as its artifact reads back."""
    args = build_parser().parse_args(["run", "all", "--smoke"])
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (_description, run) in EXPERIMENTS.items():
            path = export_json(run(args).record(), Path(tmp) / name)
            records[name] = json.loads(path.read_text())["deterministic"]
    return records


def regenerate() -> None:
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(smoke_records(), indent=1, sort_keys=True)
                      + "\n")


def _numbers(values: list) -> bool:
    return all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in values)


def _diff(path: str, golden, fresh, scale: float = 0.0) -> list[str]:
    """Paths where ``fresh`` moved away from ``golden``."""
    if isinstance(golden, dict) and isinstance(fresh, dict):
        if golden.keys() != fresh.keys():
            return [f"{path}: keys {sorted(golden)} -> {sorted(fresh)}"]
        return [moved for key in golden
                for moved in _diff(f"{path}.{key}", golden[key], fresh[key])]
    if isinstance(golden, list) and isinstance(fresh, list):
        if len(golden) != len(fresh):
            return [f"{path}: length {len(golden)} -> {len(fresh)}"]
        if golden and _numbers(golden):
            scale = max((abs(v) for v in golden if math.isfinite(v)),
                        default=0.0)
        return [moved for index, (g, f) in enumerate(zip(golden, fresh))
                for moved in _diff(f"{path}[{index}]", g, f, scale)]
    if (isinstance(golden, float) or isinstance(fresh, float)) and _numbers(
            [golden, fresh]):
        if math.isnan(golden) and math.isnan(fresh):
            return []
        if math.isclose(golden, fresh, rel_tol=1e-9,
                        abs_tol=max(scale, 1e-3) * 1e-9):
            return []
    elif golden == fresh and type(golden) is type(fresh):
        return []
    return [f"{path}: {golden!r} -> {fresh!r}"]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def fresh() -> dict:
    return smoke_records()


def test_golden_covers_every_experiment(golden):
    assert sorted(golden) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_smoke_record_matches_golden(name, golden, fresh):
    assert _diff(name, golden[name], fresh[name]) == []


if __name__ == "__main__":
    regenerate()
    print(f"wrote {GOLDEN}")
