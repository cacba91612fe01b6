"""One room, end to end: determinism, delivery accounting, teardown."""

import gc
import math
import pickle
import weakref
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audio import AcousticChannel, AudioSignal, FrequencyDetector
from repro.fleet import RoomSpec, run_room
from repro.fleet import room as room_module
from repro.fleet.room import _attribute_onsets, _peak_tones_per_window
from tests.audio.reference_detect import reference_detect
from tests.audio.reference_render import render_reference

#: Small-but-real room: 8 switches for ~0.5 s keeps the test quick
#: while exercising the full chirp/listen/attribute path.
SPEC = RoomSpec(room_id=0, num_switches=8, horizon=0.5)


@pytest.fixture(scope="module")
def report():
    return run_room(SPEC)


def test_room_delivers_its_chirps(report):
    assert report.emissions > 0
    assert report.delivered <= report.emissions
    assert report.delivery_ratio >= 0.9
    assert report.delivery_ratio <= 1.0  # matched accounting caps at 1
    assert report.spurious_onsets <= report.onsets


def test_room_metrics_mirror_the_report(report):
    snap = report.metrics.snapshot()
    assert snap["fleet.rooms"]["value"] == 1
    assert snap["fleet.switches"]["value"] == SPEC.num_switches
    assert snap["fleet.emissions"]["value"] == report.emissions
    assert snap["fleet.delivered"]["value"] == report.delivered
    assert snap["fleet.spurious_onsets"]["value"] == report.spurious_onsets
    assert snap["fleet.onset_lag_ms"]["count"] == report.onsets - \
        report.spurious_onsets
    # every genuine onset is attributed within the matching horizon
    max_lag_ms = (SPEC.tone_duration + 2 * SPEC.listen_interval) * 1e3
    assert snap["fleet.onset_lag_ms"]["max"] <= max_lag_ms


def test_two_runs_are_identical(report):
    again = run_room(SPEC)
    assert again.identity_signature() == report.identity_signature()


def test_wall_clock_stays_out_of_the_signature(report):
    assert "wall_s" not in report.identity_signature()
    assert report.wall_s > 0.0


def test_different_rooms_differ_but_share_the_band(report):
    other = run_room(RoomSpec(room_id=1, num_switches=8, horizon=0.5))
    # same band (spatial reuse), different placement/stagger stream
    assert other.identity_signature() != report.identity_signature()
    assert other.emissions > 0


def test_different_seed_changes_the_room(report):
    other = run_room(RoomSpec(room_id=0, num_switches=8, horizon=0.5,
                              fleet_seed=99))
    assert other.identity_signature() != report.identity_signature()


def test_peak_gauge_keeps_adjacent_float_window_starts_apart():
    """A window start a hair below its grid point (1.9999999999999998
    for the window at 2.0 s) belongs to that window, not the one
    before: one tone per window peaks at 1, not 2."""
    interval = SPEC.listen_interval
    assert interval == 1.0 / 30.0
    # Truncation would fold the middle start into window 59.
    assert int(1.9999999999999998 / interval) == 59
    onsets = [(700.0, 59 * interval), (800.0, 1.9999999999999998),
              (900.0, 61 * interval)]
    assert _peak_tones_per_window(onsets, SPEC) == 1.0


def reference_rollup(onsets, chirp_times, spec):
    """The per-onset loops the vectorised roll-up replaced: the lags
    observed (ms, in onset order), chirps delivered, spurious onsets
    and the peak-tones gauge."""
    max_lag = spec.tone_duration + 2.0 * spec.listen_interval
    lags, delivered, spurious, hit = [], 0, 0, {}
    for frequency, heard_at in onsets:
        starts = chirp_times.get(frequency, [])
        window_end = heard_at + spec.listen_interval
        position = bisect_right(starts, window_end) - 1
        lag = window_end - starts[position] if position >= 0 else math.inf
        if lag > max_lag:
            spurious += 1
            continue
        lags.append(lag * 1e3)
        redeemed = hit.setdefault(frequency, set())
        if position not in redeemed:
            redeemed.add(position)
            delivered += 1
    per_window = {}
    for frequency, heard_at in onsets:
        window = round(heard_at / spec.listen_interval)
        per_window.setdefault(window, set()).add(frequency)
    peak = float(max((len(v) for v in per_window.values()), default=0))
    return lags, delivered, spurious, peak


@settings(max_examples=200, deadline=None)
@given(data=st.data(),
       chirps=st.dictionaries(
           st.sampled_from([700.0, 720.0, 740.0, 760.0]),
           st.lists(st.integers(0, 60), max_size=12, unique=True),
           max_size=4))
def test_rollup_matches_the_per_onset_loops(data, chirps):
    """Onsets before any chirp, long after one (spurious), several for
    one chirp, on frequencies with no chirps, and on window starts a
    hair off the grid: equal lags in equal order, counts and gauge."""
    interval = SPEC.listen_interval
    chirp_times = {frequency: sorted(slot * 0.1 for slot in slots)
                   for frequency, slots in chirps.items()}
    starts = st.one_of(
        st.integers(0, 200).map(lambda k: k * interval),
        st.integers(1, 200).map(lambda k: float(np.nextafter(k * interval,
                                                             0.0))),
        st.floats(0.0, 7.0),
    )
    onsets = data.draw(st.lists(
        st.tuples(st.sampled_from([700.0, 720.0, 740.0, 760.0, 780.0]),
                  starts),
        max_size=60))
    lags, delivered = _attribute_onsets(onsets, chirp_times, SPEC)
    want_lags, want_delivered, want_spurious, want_peak = reference_rollup(
        onsets, chirp_times, SPEC)
    assert lags.tolist() == want_lags
    assert delivered == want_delivered
    assert len(onsets) - len(lags) == want_spurious
    assert _peak_tones_per_window(onsets, SPEC) == want_peak


def test_report_is_picklable(report):
    clone = pickle.loads(pickle.dumps(report))
    assert clone.identity_signature() == report.identity_signature()


def test_listen_path_matches_the_reference_loops(monkeypatch):
    """A dense room on the block render and batched detect path, then
    again with the reference render loop and array detect pipeline
    patched in, one window per block: every window's events, and so the
    identity signature, must be equal."""
    spec = RoomSpec(room_id=0, num_switches=50, horizon=3.0)
    heard = []

    def recording(detect_frames):
        def recording_detect_frames(self, frames, sample_rate, times):
            rows = detect_frames(self, frames, sample_rate, times)
            heard.extend(rows)
            return rows
        return recording_detect_frames

    def reference_detect_frames(self, frames, sample_rate, times):
        return [reference_detect(self, AudioSignal(row, sample_rate), time)
                for row, time in zip(frames.reshape(-1, frames.shape[-1]),
                                     times)]

    def reference_render_block(self, listener, starts, ends):
        return render_reference(self, listener, starts[0],
                                ends[0]).samples.reshape(1, -1)

    monkeypatch.setattr(FrequencyDetector, "detect_frames",
                        recording(FrequencyDetector.detect_frames))
    fast = run_room(spec)
    fast_events, heard[:] = list(heard), []
    monkeypatch.setattr(AcousticChannel, "render_block",
                        reference_render_block)
    monkeypatch.setattr(FrequencyDetector, "detect_frames",
                        recording(reference_detect_frames))
    reference = run_room(spec)
    assert len(fast_events) == fast.windows
    assert sum(map(len, fast_events)) > 0
    assert heard == fast_events
    assert reference.identity_signature() == fast.identity_signature()


def _capturing_rigs(monkeypatch):
    """Patch ``_build_room`` to record every rig it builds."""
    rigs = []
    build = room_module._build_room

    def building(spec):
        rigs.append(build(spec))
        return rigs[-1]

    monkeypatch.setattr(room_module, "_build_room", building)
    return rigs


def test_a_room_without_faults_runs_only_its_listen_windows(monkeypatch):
    """Every chirp reaches the channel in one batch at build time: the
    sim dispatches nothing but the listen timer."""
    rigs = _capturing_rigs(monkeypatch)
    report = run_room(RoomSpec(room_id=0, num_switches=50, horizon=3.0))
    assert report.emissions > 50 * 20
    assert rigs[0].sim.events_processed == report.windows


def _channel_left_by(monkeypatch, spec):
    """A weakref to the channel of ``run_room(spec)``, taken after the
    call returned with the cyclic GC off."""
    rigs = _capturing_rigs(monkeypatch)
    enabled = gc.isenabled()
    gc.disable()
    try:
        run_room(spec)
        return weakref.ref(rigs.pop().channel)
    finally:
        if enabled:
            gc.enable()


def test_a_finished_room_is_freed_by_refcount(monkeypatch):
    """No reference cycle outlives ``run_room``: with the cyclic GC off,
    the room's channel is gone as soon as the call returns."""
    assert _channel_left_by(monkeypatch, SPEC)() is None
