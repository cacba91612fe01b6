"""XEXT16 end-to-end: workload mixes → precision/recall, scale and
speedup, the exported artifact, and the CLI driver."""

import json

import pytest

from repro.artifact import export_json
from repro.experiments.xext16 import (
    XEXT16_SEED,
    measure_speedup,
    workload_experiment,
)


@pytest.fixture(scope="module")
def smoke_result():
    return workload_experiment(smoke=True)


class TestMixes:
    def test_covers_the_three_acceptance_mixes(self, smoke_result):
        names = [point.name for point in smoke_result.mixes]
        assert {"mice", "elephants-mice", "scan-churn"} <= set(names)
        assert len(names) >= 3

    def test_every_mix_reports_both_scores(self, smoke_result):
        for point in smoke_result.mixes:
            for score in (point.heavy_hitter, point.port_scan):
                assert 0.0 <= score["precision"] <= 1.0
                assert 0.0 <= score["recall"] <= 1.0
            assert len(point.heavy_hitter_curve) > 1
            assert len(point.port_scan_curve) > 1
            assert point.packets > 0

    def test_planted_signals_are_recalled(self, smoke_result):
        by_name = {point.name: point for point in smoke_result.mixes}
        elephants = by_name["elephants-mice"]
        assert elephants.heavy_hitter["recall"] == 1.0
        assert elephants.heavy_hitter["true_positives"] >= 1
        scan = by_name["scan-churn"]
        assert scan.port_scan["recall"] == 1.0
        assert scan.port_scan["true_positives"] >= 1

    def test_ground_truth_labels_recorded(self, smoke_result):
        by_name = {point.name: point for point in smoke_result.mixes}
        assert by_name["mice"].label_counts == {
            "mouse": by_name["mice"].num_flows}
        assert by_name["scan-churn"].label_counts.get("scan", 0) >= 1


class TestScale:
    def test_sustains_at_least_100k_flows(self, smoke_result):
        assert smoke_result.max_flows_sustained >= 100_000
        point = max(smoke_result.scale, key=lambda p: p.num_flows)
        assert point.packets > 0
        # Smoke-feasible wall time: the driver's event cost is per
        # batch window, not per flow.
        assert point.run_s < 30.0

    def test_speedup_counts_identical(self, smoke_result):
        speedup = smoke_result.speedup
        assert speedup.num_flows == 10_000
        assert speedup.counts_match
        assert speedup.packets_vectorized == speedup.packets_reference


class TestArtifact:
    def test_export_schema(self, smoke_result, tmp_path):
        path = export_json(smoke_result.record(),
                           tmp_path / "BENCH_xext16.json")
        payload = json.loads(path.read_text())["deterministic"]
        assert payload["seed"] == XEXT16_SEED
        assert payload["smoke"] is True
        assert payload["max_flows_sustained"] >= 100_000
        assert payload["speedup"]["counts_match"] is True
        for mix in payload["mixes"]:
            assert {"precision", "recall", "f1"} <= set(
                mix["heavy_hitter"])
            assert {"threshold", "precision", "recall"} <= set(
                mix["port_scan_curve"][0])


class TestCli:
    def test_run_xext16_smoke(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["run", "xext16", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "XEXT16" in out
        assert "speedup" in out
        assert (tmp_path / ".benchmarks" / "BENCH_xext16.json").exists()

    def test_workload_choices_listed(self):
        from repro.cli import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "fig4ab", "--workload", "bogus"])
        args = parser.parse_args(["run", "fig4ab", "--workload", "mice"])
        assert args.workload == "mice"


def test_speedup_direction_holds_at_small_scale():
    """A cheap sanity check of the perf-gate measurement (the strict
    >=10x gate runs in benchmarks/ via ``make bench-micro``)."""
    point = measure_speedup(num_flows=2_000, duration=1.0,
                            seed=XEXT16_SEED)
    assert point.counts_match
    assert point.speedup > 1.0
