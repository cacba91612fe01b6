"""Tests for the benchmark harness itself.

Run from the repository root: ``PYTHONPATH=src python -m pytest bench -q``.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import spans

BENCH = Path(__file__).resolve().parent


def _rep(rows, counts=None):
    """RepSpans from ``(span, site, start, end, parent)`` rows."""
    keys = list(dict.fromkeys((span, site) for span, site, *_ in rows))
    return spans.RepSpans(
        keys=keys,
        key=np.array([keys.index((span, site)) for span, site, *_ in rows]),
        start=np.array([row[2] for row in rows], dtype=float),
        end=np.array([row[3] for row in rows], dtype=float),
        parent=np.array([row[4] for row in rows]),
        counts=counts or {},
    )


class TestSelfTimes:
    def test_overlapping_children_count_once(self):
        start = np.array([0.0, 1.0, 3.0, 8.0])
        end = np.array([10.0, 4.0, 6.0, 9.0])
        parent = np.array([-1, 0, 0, 0])
        own = spans.self_times(start, end, parent)
        # Children cover [1, 6) and [8, 9): 6 of the parent's 10.
        assert own.tolist() == [4.0, 3.0, 3.0, 1.0]

    def test_nesting_subtracts_direct_children_only(self):
        own = spans.self_times(np.array([0.0, 2.0, 3.0]),
                               np.array([10.0, 8.0, 5.0]),
                               np.array([-1, 0, 1]))
        assert own.tolist() == [4.0, 4.0, 2.0]

    def test_child_outside_parent_is_clipped(self):
        own = spans.self_times(np.array([0.0, 4.0]), np.array([5.0, 7.0]),
                               np.array([-1, 0]))
        assert own.tolist() == [4.0, 3.0]

    def test_union_length(self):
        assert spans.union_length([0, 2, 1], [3, 4, 2], 0, 10) == 4
        assert spans.union_length([0, 6], [3, 9], 1, 7) == 3


class TestLayerMetrics:
    def test_residual_share_and_self_times_sum_to_wall(self):
        rep = _rep([
            ("bench.rep", "", 0.0, 10.0, -1),
            ("sim.run", "", 1.0, 9.0, 0),
            ("sim.event", "A.cb", 2.0, 4.0, 1),
            ("detector.detect", "", 2.5, 3.5, 2),
            ("sim.event", "B.cb", 5.0, 6.0, 1),
        ], counts={"detector.events": 3})
        metrics, sites = spans.rep_layer_metrics(rep)
        assert metrics["bench.rep.self_ms"] == pytest.approx(2e3)
        assert metrics["sim.event.self_ms"] == pytest.approx(2e3)
        assert metrics["sim.event.calls"] == 2
        assert metrics["residual.share"] == pytest.approx(0.4)
        assert metrics["detector.events_per_window"] == 3
        assert sites == pytest.approx({"A.cb": 1e3, "B.cb": 1e3})
        total = sum(metrics[f"{s}.share"] for s in spans.SPANS)
        assert total == pytest.approx(1.0)

    def test_metric_catalogue_matches_benchmark_json(self):
        benchmark = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        units = spans.layer_metric_units()
        assert len(units) == 84
        assert [m["name"] for m in benchmark["per_layer"]] == list(units)


class TestVerdict:
    def test_within_bound_is_same(self):
        assert compare.verdict([10, 10, 10], [10.5, 10.5, 10.5],
                               "lower", 0.1)[0] == "same"

    def test_beyond_bound(self):
        assert compare.verdict([10] * 3, [12] * 3, "lower", 0.1)[0] == "worse"
        assert compare.verdict([10] * 3, [8] * 3, "lower", 0.1)[0] == "better"

    def test_higher_is_better_flips_sign(self):
        label, change = compare.verdict([10] * 3, [8] * 3, "higher", 0.1)
        assert label == "worse" and change == pytest.approx(0.2)

    def test_wide_spread_is_unresolved(self):
        assert compare.verdict([8, 10, 12], [9, 11, 13], "lower",
                               0.1)[0] == "unresolved"

    def test_wide_spread_but_every_run_better(self):
        assert compare.verdict([20, 25, 30], [5, 7, 9], "lower",
                               0.1)[0] == "better"

    def test_floor_absorbs_small_absolute_change(self):
        assert compare.verdict([0.1] * 3, [0.14] * 3, "lower", 0.1,
                               floor=0.05)[0] == "same"

    def test_bound_zero_is_exact(self):
        assert compare.verdict([0.5], [0.5], "lower", 0.0)[0] == "same"
        assert compare.verdict([0.5], [0.5000001], "lower", 0.0)[0] == "worse"
        assert compare.verdict([0.5], [0.4], "lower", 0.0)[0] == "better"

    def test_higher_fail_ratio_fails_the_comparison(self):
        benchmark = {"end_to_end": [{"name": "sim_rate", "unit": "x",
                                     "better": "higher", "bound": 0.1}]}

        def result(fail_ratio):
            record = {"samples": {"sim_rate": [10.0, 10.1],
                                  "fail_ratio": [fail_ratio]}}
            return {"sets": [{"traced": False,
                              "workloads": {"w": record}}]}

        lines, worse = compare.compare(result(0.01), result(0.01), benchmark)
        assert not worse and "same" in lines[1]
        lines, worse = compare.compare(result(0.01), result(0.02), benchmark)
        assert worse and "worse" in lines[1]


def test_smoke_run_traced_digests_match_untraced(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--trace",
         "--out", str(out)],
        capture_output=True, text=True, timeout=240,
    )
    assert done.returncode == 0, done.stderr
    untraced, traced = json.loads(out.read_text())["sets"]
    assert not untraced["traced"] and traced["traced"]
    assert list(traced["workloads"]) == list(untraced["workloads"])
    assert len(untraced["workloads"]) == 4
    for workload, record in traced["workloads"].items():
        assert record["digest"] == untraced["workloads"][workload]["digest"]
        assert record["checks"]["traced_digest_matches"]
        assert set(record["layers"]) == set(spans.layer_metric_units())
        trace = json.loads((BENCH / "out" / f"trace-{workload}.json").read_text())
        assert any(event["ph"] == "X" for event in trace["traceEvents"])
