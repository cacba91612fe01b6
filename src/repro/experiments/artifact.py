"""The one writer for the ``.benchmarks/BENCH_*.json`` experiment records."""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path


def export_json(result, path: str | Path, derived: tuple[str, ...]) -> Path:
    """Write dataclass ``result`` to ``path`` as indent-2 JSON.

    The payload is ``asdict(result)`` followed by each named derived
    property in ``derived``; parent directories are created.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = asdict(result)
    for name in derived:
        payload[name] = getattr(result, name)
    target.write_text(json.dumps(payload, indent=2) + "\n")
    return target
