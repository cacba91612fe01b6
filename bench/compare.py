"""Verdicts between two benchmark result files.

Each (end-to-end metric, workload) pair gets ``better``, ``same``,
``worse`` or ``unresolved``.  Timed metrics use the bounds fixed in
``BENCHMARK.json``; the behaviour metrics are simulated outputs that
repeat exactly, so their bound is 0 and any increase is ``worse``.
"""

from __future__ import annotations

import statistics

#: Behaviour metrics (bound 0, lower is better) -> unit.
EXACT = {
    "fail_ratio": "failed/attempted",
    "onset_lag_ms_p50": "sim-ms",
    "onset_lag_ms_p99": "sim-ms",
    "rebalance_s": "sim-s",
}

#: Absolute slack under the relative bound, in the metric's unit: a
#: 0.05 s set-up or 5 MB memory change is noise at any median.
FLOORS = {"setup_s": 0.05, "peak_rss_mb": 5.0}

#: Relative change in a layer's self time reported as information.
LAYER_FLAG = 0.10


def metric_specs(benchmark: dict) -> dict[str, dict]:
    """Every end-to-end metric: name -> unit, better, bound, floor."""
    specs = {
        m["name"]: {"unit": m["unit"], "better": m["better"],
                    "bound": m["bound"], "floor": FLOORS.get(m["name"], 0.0)}
        for m in benchmark["end_to_end"]
    }
    for name, unit in EXACT.items():
        specs[name] = {"unit": unit, "better": "lower", "bound": 0.0,
                       "floor": 0.0}
    return specs


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(a: list[float], b: list[float], better: str, bound: float,
            floor: float = 0.0) -> tuple[str, float]:
    """Judge samples ``b`` (the change) against ``a`` (the parent).

    Returns the verdict and the relative change of the medians, signed
    so that positive is worse.
    """
    sign = 1.0 if better == "lower" else -1.0
    a_mid, b_mid = statistics.median(a), statistics.median(b)
    worse_by = sign * (b_mid - a_mid)
    relative = worse_by / abs(a_mid) if a_mid else (1.0 if worse_by else 0.0)
    if bound == 0.0:
        label = "worse" if worse_by > 0 else "better" if worse_by < 0 else "same"
        return label, relative
    tolerance = max(bound * abs(a_mid), floor)
    if max(spread(a), spread(b)) > tolerance:
        b_wins = all(sign * (y - x) < 0 for x in a for y in b)
        return ("better" if b_wins else "unresolved"), relative
    if worse_by > tolerance:
        return "worse", relative
    if worse_by < -tolerance:
        return "better", relative
    return "same", relative


def pooled(result: dict) -> tuple[dict, dict]:
    """Untraced samples pooled over a file's sets, per workload and
    metric; and the traced set's layer metrics per workload."""
    samples: dict[str, dict[str, list]] = {}
    layers: dict[str, dict] = {}
    for one_set in result["sets"]:
        for workload, record in one_set["workloads"].items():
            if one_set["traced"]:
                layers[workload] = record["layers"]
                continue
            into = samples.setdefault(workload, {})
            for metric, values in record["samples"].items():
                into.setdefault(metric, []).extend(values)
    return samples, layers


def compare(a: dict, b: dict, benchmark: dict) -> tuple[list[str], bool]:
    """Report lines, one row per workload, and whether any pair got
    worse."""
    specs = metric_specs(benchmark)
    a_samples, a_layers = pooled(a)
    b_samples, b_layers = pooled(b)
    names = [name for name in specs
             if any(name in a_samples[w] for w in a_samples)]
    lines = ["workload".ljust(17) + "".join(n.ljust(24) for n in names)]
    any_worse = False
    for workload in a_samples:
        if workload not in b_samples:
            continue
        cells = []
        for name in names:
            a_values = a_samples[workload].get(name)
            b_values = b_samples[workload].get(name)
            if not a_values or not b_values:
                cells.append("-")
                continue
            spec = specs[name]
            label, change = verdict(a_values, b_values, spec["better"],
                                    spec["bound"], spec["floor"])
            any_worse |= label == "worse"
            cells.append(f"{label} {change:+.1%}")
        lines.append(workload.ljust(17) + "".join(c.ljust(24) for c in cells))
    for workload in sorted(set(a_layers) & set(b_layers)):
        for key, before in a_layers[workload].items():
            after = b_layers[workload].get(key)
            if not key.endswith(".self_ms") or after is None or not before:
                continue
            change = (after - before) / before
            if abs(change) > LAYER_FLAG:
                lines.append(f"info  {workload} {key}: {before:.1f} -> "
                             f"{after:.1f} ms ({change:+.0%})")
    return lines, any_worse
