"""Tests for the command-line driver."""

import json
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, build_parser, main, run_experiment

HEADER = {"git_sha", "host", "cpu_count", "python", "numpy", "params"}


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    """Artifacts land in a scratch directory, not the checkout."""
    monkeypatch.chdir(tmp_path)


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestRun:
    def test_run_fig2a(self, capsys):
        assert main(["run", "fig2a"]) == 0
        out = capsys.readouterr().out
        assert "Fig 2a" in out
        assert "all identified: True" in out

    def test_run_fig2a_with_noise_flag(self, capsys):
        assert main(["run", "fig2a", "--noise", "--switches", "3"]) == 0
        assert "all identified: True" in capsys.readouterr().out

    def test_run_fig2b_sample_count(self, capsys):
        assert main(["run", "fig2b", "--samples", "50"]) == 0
        assert "p90" in capsys.readouterr().out

    def test_run_fig5cd(self, capsys):
        assert main(["run", "fig5cd"]) == 0
        out = capsys.readouterr().out
        assert "500 Hz" in out
        assert "700 Hz" in out

    def test_run_fig4ab_song_flag(self, capsys):
        assert main(["run", "fig4ab", "--song"]) == 0
        out = capsys.readouterr().out
        assert "with song" in out
        assert "detected: True" in out


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_every_experiment_prints_and_records(name, capsys):
    """One loop: the result's tables are printed and its record is
    written under the header to ``BENCH_<name>.json``."""
    result = run_experiment(name, build_parser().parse_args(
        ["run", name, "--smoke"]))
    out = capsys.readouterr().out
    for title, rows in result.rows():
        assert f"== {title}" in out
        assert rows
    payload = json.loads(Path(f".benchmarks/BENCH_{name}.json").read_text())
    assert set(payload) == {"header", "deterministic", "wall_time"}
    assert set(payload["header"]) == HEADER
    assert payload["header"]["params"]["smoke"] is True
    record = result.record()
    assert set(payload["deterministic"]) == set(record["deterministic"])
    assert set(payload["wall_time"]) == set(record["wall_time"])


def test_obs_writes_metrics_and_trace(capsys):
    assert main(["obs", "fig5cd"]) == 0
    assert "== metrics" in capsys.readouterr().out
    payload = json.loads(Path(".benchmarks/OBS_fig5cd.json").read_text())
    assert set(payload["header"]) == HEADER
    assert payload["header"]["params"]["experiment"] == "fig5cd"
    assert payload["trace"]
    assert payload["sim.events_processed"]["value"] > 0


class TestRender:
    @pytest.mark.parametrize("scene", ["knock", "chirps", "song"])
    def test_render_writes_wav(self, scene, tmp_path, capsys):
        target = tmp_path / f"{scene}.wav"
        assert main(["render", scene, str(target)]) == 0
        assert target.stat().st_size > 10_000
        assert "have a listen" in capsys.readouterr().out

    def test_rendered_knock_contains_the_melody(self, tmp_path):
        """The exported WAV really carries the three knock tones."""
        from repro.audio import FrequencyDetector, read_wav

        target = tmp_path / "knock.wav"
        main(["render", "knock", str(target)])
        signal = read_wav(target)
        # The knock frequencies are the first three plan slots (400,
        # 420, 440 Hz with the default plan).  The WAV is normalized:
        # use a permissive absolute floor.
        detector = FrequencyDetector([400.0, 420.0, 440.0],
                                     min_level_db=-100.0)
        heard = {
            event.frequency
            for event in detector.detect_stream(signal, frame_duration=0.2)
        }
        assert heard == {400.0, 420.0, 440.0}

    def test_unknown_scene_rejected(self):
        with pytest.raises(SystemExit):
            main(["render", "silence", "x.wav"])
