"""Result records and the one JSON artifact writer.

Every CLI experiment returns a dataclass result that mixes in
:class:`Result`: ``rows()`` gives its printed tables and ``record()``
its artifact, split into a deterministic half (pinned by
``tests/golden/smoke.json``) and a wall-time half.  Fields measured in
wall time, or by the host, are declared ``field(metadata=WALL_TIME)``.

:func:`export_json` writes every ``.benchmarks/*.json`` artifact under
one header, whether the payload is a result record, a metrics snapshot
or a micro-benchmark trajectory.
"""

from __future__ import annotations

import enum
import functools
import json
import os
import platform
import subprocess
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np

#: ``field(metadata=WALL_TIME)`` marks a field that varies run to run.
WALL_TIME = {"wall_time": True}


class Result:
    """Mixin for experiment results.

    A subclass is a dataclass that defines ``rows()``: a list of
    ``(title, rows)`` tables, each row a tuple of cells or a ``str``
    note printed under the table.  ``derived`` names properties recorded
    next to the deterministic fields, ``wall_derived`` those recorded
    next to the wall-time ones.
    """

    derived: tuple[str, ...] = ()
    wall_derived: tuple[str, ...] = ()

    def record(self) -> dict:
        deterministic, wall_time = _split(self)
        deterministic.update((name, getattr(self, name))
                             for name in self.derived)
        wall_time.update((name, getattr(self, name))
                         for name in self.wall_derived)
        return {"deterministic": deterministic, "wall_time": wall_time}


def _split(value):
    """``value`` as plain containers, cut into (deterministic, wall-time)
    halves; the wall-time half is empty where nothing is marked."""
    if is_dataclass(value) and not isinstance(value, type):
        deterministic, wall_time = {}, {}
        for spec in fields(value):
            inner, inner_wall = _split(getattr(value, spec.name))
            if spec.metadata.get("wall_time"):
                wall_time[spec.name] = inner
            else:
                deterministic[spec.name] = inner
                if inner_wall:
                    wall_time[spec.name] = inner_wall
        return deterministic, wall_time
    if isinstance(value, (list, tuple)):
        halves = [_split(item) for item in value]
        walls = [wall for _, wall in halves]
        return [det for det, _ in halves], (walls if any(walls) else [])
    if isinstance(value, dict):
        halves = {key: _split(item) for key, item in value.items()}
        return ({key: det for key, (det, _) in halves.items()},
                {key: wall for key, (_, wall) in halves.items() if wall})
    return value, None


@functools.cache
def _git_sha() -> str | None:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=Path(__file__).parent,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _header(params: dict | None = None) -> dict:
    """Where and how an artifact was produced."""
    return {
        "git_sha": _git_sha(),
        "host": platform.node(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "params": params or {},
    }


def _encode(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, enum.Enum):
        return value.name
    return str(value)


def export_json(data, path: str | Path, params: dict | None = None) -> Path:
    """Write ``data`` (a dataclass or a dict) to ``path`` as indent-2
    JSON after the :func:`_header`; parent directories are created."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = asdict(data) if is_dataclass(data) else data
    target.write_text(json.dumps({"header": _header(params), **payload},
                                 indent=2, default=_encode) + "\n")
    return target
