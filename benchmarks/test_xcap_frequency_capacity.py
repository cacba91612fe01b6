"""XCAP — frequency capacity.

* §5's "~1000 distinct frequencies" capacity claim, as plan math and as
  a live concurrency sweep.
* §3's 20 Hz separability floor, swept to find where it breaks.
* Detection under room multipath.
"""

from conftest import report

from repro.core import FrequencyPlan
from repro.experiments import (
    concurrency_sweep,
    guard_spacing_sweep,
    multipath_sweep,
)


def test_xcap_thousand_frequency_claim(run_once):
    plan = run_once(FrequencyPlan, low_hz=20.0, high_hz=20_000.0,
                    guard_hz=20.0)
    report("XCAP: audible-band capacity at 20 Hz guard (paper: ~1000)", [
        ("capacity", plan.capacity),
    ])
    assert 950 <= plan.capacity <= 1050


def test_xcap_concurrent_tone_sweep(run_once):
    points = run_once(concurrency_sweep)
    rows = [("simultaneous tones", "recall", "precision")]
    for point in points:
        rows.append((point.num_tones, f"{point.recall:.2f}",
                     f"{point.precision:.2f}"))
    report("XCAP: detection vs number of concurrent tones", rows)
    for point in points:
        assert point.recall >= 0.95
        assert point.precision >= 0.95


def test_xcap_guard_spacing_floor(run_once):
    points = run_once(guard_spacing_sweep)
    rows = [("guard (Hz)", "both tones resolved")]
    for point in points:
        rows.append((point.guard_hz, point.both_detected))
    report("XCAP: separability vs guard spacing (paper floor: ~20 Hz)",
           rows)
    by_guard = {point.guard_hz: point.both_detected for point in points}
    # The paper's 20 Hz spacing resolves; 5 Hz (below one FFT bin) fails.
    assert by_guard[20.0]
    assert not by_guard[5.0]


def test_xcap_multipath_robustness(run_once):
    """Room reflections (echo taps) do not degrade detection: echoes
    are same-frequency copies, so they reinforce the watched bins
    instead of creating phantoms."""
    points = run_once(multipath_sweep)
    rows = [("echo loss (dB)", "recall", "phantom detections")]
    for point in points:
        rows.append((point.echo_loss_db, f"{point.recall:.2f}",
                     point.false_positives))
    report("XCAP: detection under multipath (two early reflections)", rows)
    for point in points:
        assert point.recall == 1.0
        assert point.false_positives == 0

