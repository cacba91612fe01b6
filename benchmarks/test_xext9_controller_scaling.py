"""XEXT9 — single-controller monitoring scale (§5/§8 speculation,
measured).

The paper's testbed had 7 switches and speculates about datacenter
scale within the ~1000-frequency budget.  This sweep loads one
controller with up to 200 chirping devices at the paper's 20 Hz
spacing and measures recall, phantom detections, per-window compute,
and plan utilization.
"""

from conftest import report

from repro.experiments import monitoring_scale_sweep


def test_xext9_scale_sweep(run_once):
    points = run_once(monitoring_scale_sweep)
    rows = [("devices", "active", "recall", "phantoms", "detect ms",
             "render ms", "plan util")]
    for point in points:
        rows.append((point.num_devices, point.num_active,
                     f"{point.recall:.2f}", point.false_positives,
                     f"{point.detect_ms:.2f}",
                     f"{point.render_ms:.2f}",
                     f"{point.plan_utilization:.0%}"))
    report("XEXT9: one controller vs N chirping devices (20 Hz grid)",
           rows)
    for point in points:
        assert point.recall == 1.0
        assert point.false_positives == 0
    # Compute stays compatible with the 100 ms listening budget: both
    # the detector and the (synthesis-side) render path must fit.
    assert all(point.detect_ms < 50.0 for point in points)
    assert all(point.render_ms < 50.0 for point in points)


def test_xext9_paper_testbed_size_is_trivial(run_once):
    """The paper's own 7-switch scale, specifically."""
    points = run_once(monitoring_scale_sweep, device_counts=(7,))
    point = points[0]
    report("XEXT9: the paper's 7-switch testbed", [
        ("recall", f"{point.recall:.2f}"),
        ("detect time", f"{point.detect_ms:.2f} ms"),
    ])
    assert point.recall == 1.0
