"""Microbenchmarks of the hot primitives (true pytest-benchmark runs).

These are performance-regression guards for the code the experiments
hammer: channel rendering, detection, mel analysis, the event loop,
flow-table lookup and sketch updates.  Unlike the figure benches (one
round each), these run many rounds for stable statistics.

The ``@pytest.mark.perf`` tests at the bottom are before/after
comparisons of the vectorized listening hot path against its scalar
references.  They need no pytest-benchmark fixture, run via
``make bench-micro``, and append their timings as JSON to
``.benchmarks/micro_perf.json`` so the bench trajectory can be tracked
across commits.
"""

import json
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.artifact import export_json
from repro.audio import (
    AcousticChannel,
    FrequencyDetector,
    Microphone,
    Position,
    SpectrumAnalyzer,
    ToneSpec,
    mel_spectrogram,
    power_spectrogram,
    sine_tone,
    white_noise,
)
from repro.baselines import CountMinSketch
from repro.core import FrequencyPlan
from repro.net import (
    Action,
    FlowKey,
    FlowTable,
    Match,
    Packet,
    Protocol,
    Simulator,
)
from tests.audio.reference_render import render_reference
from tests.audio.reference_spectrogram import power_spectrogram_reference
from tests.integration.test_packet_conservation import DURATION, build_rhombus


@pytest.fixture(scope="module")
def busy_channel():
    """Ten concurrent tones plus a noise bed: a loud testbed moment."""
    channel = AcousticChannel()
    for index in range(10):
        channel.play_tone(
            0.0, ToneSpec(500.0 + 40.0 * index, 0.5, 68.0),
            Position(0.5 + 0.1 * index, 0.0, 0.0),
        )
    channel.add_noise(
        white_noise(1.0, 50.0, rng=np.random.default_rng(1)), Position()
    )
    return channel


def test_perf_channel_render(benchmark, busy_channel):
    """Render one 100 ms capture of a 10-tone + noise mixture."""
    microphone = Microphone(Position(), seed=1)
    window = benchmark(microphone.record, busy_channel, 0.1, 0.2)
    assert len(window) == 1600


def test_perf_detector_fft_busy_window(benchmark, busy_channel):
    plan = FrequencyPlan(low_hz=500.0, guard_hz=40.0)
    watched = list(plan.allocate("all", 10).frequencies)
    detector = FrequencyDetector(watched)
    window = Microphone(Position(), seed=1).record(busy_channel, 0.1, 0.2)
    events = benchmark(detector.detect, window)
    assert len(events) == 10


def test_perf_mel_spectrogram(benchmark):
    """One second of audio into a 64-band mel spectrogram."""
    signal = sine_tone(1000.0, 1.0, 65.0)
    times, centers, mags = benchmark(mel_spectrogram, signal)
    assert mags.shape[0] == 20


def test_perf_spectrum_analyze(benchmark):
    analyzer = SpectrumAnalyzer()
    window = sine_tone(1000.0, 0.05, 65.0)
    spectrum = benchmark(analyzer.analyze, window)
    assert spectrum.level_at(1000.0) > 55.0


def test_perf_simulator_event_throughput(benchmark):
    """Schedule-and-run 10k chained events."""
    def run() -> int:
        sim = Simulator()
        count = [0]

        def tick() -> None:
            count[0] += 1
            if count[0] < 10_000:
                sim.schedule(0.0001, tick)

        sim.schedule(0.0, tick)
        sim.run(10.0)
        return count[0]

    executed = benchmark(run)
    assert executed == 10_000


def test_perf_flow_table_lookup(benchmark):
    """Lookup against a 100-entry table (worst case: match at the end)."""
    table = FlowTable()
    for index in range(99):
        table.install(Match(dst_port=20_000 + index), Action.drop(),
                      priority=50)
    table.install(Match(), Action.forward(1), priority=0)
    packet = Packet(FlowKey("10.0.0.1", "10.0.0.2", 1, 80, Protocol.TCP))
    entry = benchmark(table.lookup, packet, 1)
    assert entry.action.out_ports == (1,)


def test_perf_countmin_update(benchmark):
    sketch = CountMinSketch(width=64, depth=4)
    flow = FlowKey("10.0.0.1", "10.0.0.2", 1234, 80)
    benchmark(sketch.update, flow)
    assert sketch.estimate(flow) >= 1


# ----------------------------------------------------------------------
# Vectorization before/after comparisons (`make bench-micro`)
# ----------------------------------------------------------------------


def _best_of(func, repeats: int = 30) -> float:
    """Best wall-clock seconds over ``repeats`` calls (noise-robust)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _interleaved(bare, hooked, rounds: int) -> tuple[float, float, float]:
    """Time ``bare()`` and ``hooked()`` in alternating rounds (ABAB, the
    order flipping every round), so a shift in the host's speed hits
    both sides alike instead of landing on whichever block ran second.
    Returns the best seconds of each side and the overhead: the median
    over rounds of hooked / bare - 1, each ratio taken from one round's
    adjacent pair."""
    sides = (bare, hooked)
    best = [float("inf"), float("inf")]
    ratios = []
    for round_index in range(rounds):
        elapsed = [0.0, 0.0]
        for side in (0, 1) if round_index % 2 == 0 else (1, 0):
            start = time.perf_counter()
            sides[side]()
            elapsed[side] = time.perf_counter() - start
            best[side] = min(best[side], elapsed[side])
        ratios.append(elapsed[1] / elapsed[0])
    return best[0], best[1], float(np.median(ratios)) - 1.0


MICRO_PERF_JSON = Path(".benchmarks/micro_perf.json")
BENCH_CHANNEL_JSON = Path(".benchmarks/BENCH_channel.json")


def _merge_json(path: Path, name: str, payload: dict) -> None:
    """Add or replace record ``name`` in ``path``, keeping the others;
    the header is rewritten on every merge."""
    data = json.loads(path.read_text()) if path.exists() else {}
    data.pop("header", None)
    data[name] = {**payload, "timestamp": time.time()}
    export_json(data, path)


def _record_perf(name: str, payload: dict) -> None:
    """Merge one benchmark record into the JSON trajectory file."""
    _merge_json(MICRO_PERF_JSON, name, payload)


def _record_channel_bench(name: str, payload: dict) -> None:
    """Channel-render before/after timings get their own trajectory
    file so the synthesis-side perf history is easy to diff across
    PRs (``.benchmarks/BENCH_channel.json``)."""
    _merge_json(BENCH_CHANNEL_JSON, name, payload)
    _record_perf(name, payload)


def _chirping_channel(num_devices: int, timeline: float = 600.0,
                      chirp_every: float = 20.0) -> AcousticChannel:
    """An XEXT9-style long-running deployment: ``num_devices``
    positioned emitters, each chirping a 300 ms plan heartbeat every
    ``chirp_every`` seconds at a staggered offset, accumulating
    history over ``timeline`` seconds (no pruning — the deep-look-back
    configuration)."""
    channel = AcousticChannel()
    for index in range(num_devices):
        spec = ToneSpec(400.0 + 20.0 * index, 0.3, 68.0)
        position = Position(0.5 + 0.01 * index, 0.0, 0.0)
        start = (index * 0.37) % (chirp_every - 1.0)
        while start < timeline:
            channel.play_tone(start, spec, position)
            start += chirp_every
    return channel


def _render_sweep(channel: AcousticChannel, render, first_tick: int,
                  num_windows: int, window: float = 0.1) -> None:
    """Render ``num_windows`` consecutive controller poll windows."""
    listener = Position()
    for tick in range(first_tick, first_tick + num_windows):
        render(listener, tick * window, (tick + 1) * window)


@pytest.mark.perf
@pytest.mark.parametrize(("num_devices", "min_speedup"),
                         [(2, None), (50, 3.0), (200, 5.0)])
def test_perf_channel_render_vectorized_speedup(num_devices, min_speedup):
    """The interval-indexed render must beat the scalar full-history
    scan across a 600-window controller poll near the end of an
    XEXT9-style long-running deployment (acceptance case: 200
    emitters, >= 5x).  The scalar loop degrades with total history;
    the index is bounded by window occupancy.  The 2-emitter case (most
    windows silent, a sparse ``lb-packets``-like room) only records
    its per-window times: there the render's fixed per-call cost, not
    the history, decides."""
    num_windows = 600
    first_tick = 5400           # poll the last minute of a 10-minute run
    channel = _chirping_channel(num_devices)
    listener = Position()

    # Pin fast == reference, bit for bit, before timing anything.
    for tick in (first_tick, first_tick + 57, first_tick + 299,
                 first_tick + 598):
        fast = channel.render_at(listener, tick * 0.1, (tick + 1) * 0.1)
        reference = render_reference(
            channel, listener, tick * 0.1, (tick + 1) * 0.1
        )
        np.testing.assert_array_equal(fast.samples, reference.samples)

    def fast_sweep():
        channel.invalidate_render_cache()  # time cold renders, not memo hits
        _render_sweep(channel, channel.render_at, first_tick, num_windows)

    vectorized_s = _best_of(fast_sweep, repeats=5)
    reference_s = _best_of(
        lambda: _render_sweep(channel, partial(render_reference, channel),
                              first_tick, num_windows),
        repeats=2,
    )
    # The memo path: a co-located second listener re-polling windows
    # that are still in the (bounded) cache.
    warm = lambda: _render_sweep(channel, channel.render_at,
                                 first_tick + 500, 100)
    warm()
    memoized_s = _best_of(warm, repeats=5)

    speedup = reference_s / vectorized_s
    _record_channel_bench(f"channel_render_{num_devices}emitters_600win", {
        "num_tones": len(channel.scheduled_tones),
        "num_windows": num_windows,
        "reference_ms": reference_s * 1e3,
        "vectorized_ms": vectorized_s * 1e3,
        "reference_us_per_window": reference_s / num_windows * 1e6,
        "vectorized_us_per_window": vectorized_s / num_windows * 1e6,
        "memoized_100win_ms": memoized_s * 1e3,
        # Registry-backed memo accounting (repro.obs counters).
        "memo_hits": channel.render_cache_hits,
        "memo_misses": channel.render_cache_misses,
        "speedup": speedup,
    })
    print(f"\nchannel render {num_devices} emitters / {num_windows} windows "
          f"({len(channel.scheduled_tones)} tones history): "
          f"reference {reference_s*1e3:.1f} ms, "
          f"vectorized {vectorized_s*1e3:.1f} ms, "
          f"memoized(100win) {memoized_s*1e3:.2f} ms, "
          f"speedup {speedup:.1f}x")
    if min_speedup is not None:
        assert speedup >= min_speedup


@pytest.mark.perf
def test_perf_obs_disabled_overhead():
    """Acceptance gate for the observability layer: with obs disabled
    (the default), the instrumented render path must stay within 5% of
    the channel bench's vectorized sweep.  With obs disabled both run
    the same code, so the bench's sweep is re-timed here on the same
    channel, in interleaved rounds with the disabled sweep (same
    machine, same process, same arrays); the vectorized timing the
    channel bench recorded earlier in this ``make bench-micro`` run is
    kept beside it.  The enabled-mode cost is measured and recorded
    too, informationally."""
    from repro import obs

    assert not obs.enabled(), "obs must be disabled for tier-1/bench runs"
    bench_path = BENCH_CHANNEL_JSON
    if not bench_path.exists():
        pytest.skip("run the channel bench first (make bench-micro)")
    data = json.loads(bench_path.read_text())
    key = "channel_render_200emitters_600win"
    if key not in data:
        pytest.skip(f"no {key} record in {bench_path}")
    baseline_ms = data[key]["vectorized_ms"]

    num_windows = 600
    first_tick = 5400
    channel = _chirping_channel(200)

    def sweep():
        channel.invalidate_render_cache()
        _render_sweep(channel, channel.render_at, first_tick, num_windows)

    sweep()  # warm numpy/caches before timing
    bench_s, disabled_s, overhead = _interleaved(sweep, sweep, rounds=30)

    # Enabled-mode ratio: instruments are captured at construction, so
    # the observed channel must be built under an enabled registry.
    obs.enable()
    try:
        observed = _chirping_channel(200)

        def observed_sweep():
            observed.invalidate_render_cache()
            _render_sweep(observed, observed.render_at, first_tick,
                          num_windows)

        observed_sweep()
        enabled_s = _best_of(observed_sweep, repeats=5)
    finally:
        obs.disable()

    _record_perf("obs_disabled_overhead_200emitters_600win", {
        "baseline_ms": baseline_ms,
        "interleaved_baseline_ms": bench_s * 1e3,
        "disabled_ms": disabled_s * 1e3,
        "enabled_ms": enabled_s * 1e3,
        "disabled_overhead": overhead,
        "enabled_over_baseline": enabled_s * 1e3 / baseline_ms,
    })
    print(f"\nobs overhead 200 emitters / 600 windows: "
          f"baseline {baseline_ms:.1f} ms (interleaved {bench_s*1e3:.1f} ms), "
          f"disabled {disabled_s*1e3:.1f} ms ({overhead:+.1%}), "
          f"enabled {enabled_s*1e3:.1f} ms "
          f"({enabled_s*1e3/baseline_ms:.2f}x baseline)")
    assert overhead < 0.05


@pytest.mark.perf
def test_perf_faults_disabled_overhead():
    """Acceptance gate for the fault-injection hooks: an attached
    injector with nothing scheduled must render bit-identically to the
    un-hooked channel and stay within 5% of its timing on the 200-
    emitter render sweep (the fault path must be free when unused)."""
    from repro.faults import FaultHarness

    num_windows = 600
    first_tick = 5400
    # One channel, with and without the injector: two channels of equal
    # content can differ by more than the gate in how their arrays sit
    # in memory.
    channel = _chirping_channel(200)
    FaultHarness(Simulator(), seed=3).acoustic(channel)
    idle_model = channel._fault_model

    def sweep(model):
        channel.set_fault_model(model)
        _render_sweep(channel, channel.render_at, first_tick, num_windows)

    listener = Position()
    for tick in (first_tick, first_tick + 299):
        channel.set_fault_model(None)
        plain = channel.render_at(listener, tick * 0.1, (tick + 1) * 0.1)
        channel.set_fault_model(idle_model)
        faulty = channel.render_at(listener, tick * 0.1, (tick + 1) * 0.1)
        assert (plain.samples == faulty.samples).all()

    sweep(None)
    sweep(idle_model)  # warm both before timing
    bare_s, hooked_s, overhead = _interleaved(
        lambda: sweep(None), lambda: sweep(idle_model), rounds=30)
    _record_perf("faults_idle_overhead_200emitters_600win", {
        "bare_ms": bare_s * 1e3,
        "hooked_ms": hooked_s * 1e3,
        "idle_overhead": overhead,
    })
    print(f"\nidle fault-model overhead 200 emitters / {num_windows} "
          f"windows: bare {bare_s*1e3:.1f} ms, "
          f"hooked {hooked_s*1e3:.1f} ms ({overhead:+.1%})")
    assert overhead < 0.05


def _steady_heap_run(pending: int, dispatches: int) -> Simulator:
    """Keep ``pending`` self-rescheduling events in the heap (one per
    slot of a 1 s period) and dispatch exactly ``dispatches`` of them."""
    sim = Simulator()

    def tick() -> None:
        sim.schedule(1.0, tick)

    for slot in range(pending):
        sim.schedule(slot / pending, tick)
    sim.run(dispatches // pending - 0.5 / pending)
    return sim


@pytest.mark.perf
def test_perf_simulator_deep_heap_throughput():
    """Event dispatch with ~5,000 events pending: every push and pop
    sifts through ~12 heap levels, so this is where the cost of
    comparing heap entries shows.  ``test_perf_simulator_event_throughput``
    keeps the heap at depth 1 and cannot see it.  Gate: per-event cost
    at depth 5,000 stays within 3x of the same loop at depth 1 (heap
    entries compare as C-level lists, never as Python objects), as the
    median ratio over alternating rounds, so a shift in the host's
    speed hits both depths alike."""
    depth, dispatches = 5_000, 50_000
    assert _steady_heap_run(depth, dispatches).events_processed == dispatches
    assert _steady_heap_run(1, dispatches).events_processed == dispatches

    shallow_s, deep_s, overhead = _interleaved(
        lambda: _steady_heap_run(1, dispatches),
        lambda: _steady_heap_run(depth, dispatches), rounds=15)
    ratio = overhead + 1.0
    _record_perf("simulator_deep_heap_5k_pending_50k_events", {
        "deep_us_per_event": deep_s / dispatches * 1e6,
        "shallow_us_per_event": shallow_s / dispatches * 1e6,
        "deep_over_shallow": ratio,
    })
    print(f"\nsimulator 50k events: depth {depth} "
          f"{deep_s / dispatches * 1e6:.2f} us/event, depth 1 "
          f"{shallow_s / dispatches * 1e6:.2f} us/event ({ratio:.2f}x)")
    assert ratio < 3.0


@pytest.mark.perf
def test_perf_packet_path():
    """The per-packet path end to end: the Fig 5a-b rhombus of the
    ``lb-packets`` workload at its small size (2,000 mice flows and the
    ramp source for 2 s, with the chirper and the controller's listen
    windows running).  Reports the best of 5 fresh runs as wall time per
    dispatched sim event and per packet sent; every run dispatches the
    same events for the same packets."""
    runs = []
    for _ in range(5):
        sim, topo, _ramp = build_rhombus()
        start = time.perf_counter()
        sim.run(DURATION)
        runs.append((time.perf_counter() - start, sim.events_processed,
                     topo.hosts["h1"].packets_sent.total))
    assert len({(events, packets) for _s, events, packets in runs}) == 1
    wall_s = min(wall for wall, _e, _p in runs)
    _wall, events, packets = runs[0]
    _record_perf("packet_path_rhombus_2k_flows_2s", {
        "events": events,
        "packets": packets,
        "us_per_event": wall_s / events * 1e6,
        "us_per_packet": wall_s / packets * 1e6,
    })
    print(f"\npacket path rhombus 2k flows/2s: {events} events, "
          f"{packets:.0f} packets, {wall_s / events * 1e6:.2f} us/event, "
          f"{wall_s / packets * 1e6:.2f} us/packet")


@pytest.mark.perf
def test_perf_detector_fft():
    """Per-window FFT detect time on a fleet room's listening load: a
    50-tone watch list (the room plan: 420 Hz up, 120 Hz guard) over
    50 ms captures of 30 ms chirps, ten per second per tone.  Records
    the per-window p50/p90 beside the paper's Fig 2b budget (90% of
    windows within 0.35 ms), and the p90 of a full listen window: a
    cold capture (render plus microphone self-noise) and its detect.
    Beside them, the amortized per-window cost of hearing the 40
    windows as blocks; Fig 2b itself stays a per-window metric."""
    plan = FrequencyPlan(low_hz=420.0, high_hz=420.0 + 120.0 * 52,
                         guard_hz=120.0)
    watched = [plan.allocate(f"s{index}", 1).frequency_for(0)
               for index in range(50)]
    rng = np.random.default_rng(6)
    channel = AcousticChannel()
    for frequency in watched:
        position = Position(float(rng.uniform(0.6, 1.2)), 0.0, 0.0)
        for start in np.arange(rng.uniform(0.0, 0.1), 2.0, 0.1):
            channel.play_tone(float(start), ToneSpec(frequency, 0.03, 70.0),
                              position)
    microphone = Microphone(Position(), seed=1)
    windows = [microphone.record(channel, tick * 0.05, (tick + 1) * 0.05)
               for tick in range(40)]
    detector = FrequencyDetector(watched)
    heard = [len(detector.detect(window)) for window in windows]
    # The seeded load is deterministic: pin the events heard per window.
    assert heard == [12] + [22, 20] * 19 + [22]
    per_window_s = []
    for _ in range(10):
        for window in windows:
            start = time.perf_counter()
            detector.detect(window)
            per_window_s.append(time.perf_counter() - start)
    p50_us, p90_us = np.percentile(per_window_s, [50, 90]) * 1e6
    listen_s = []
    for _ in range(10):
        for tick in range(len(windows)):
            channel.invalidate_render_cache()
            start = time.perf_counter()
            detector.detect(microphone.record(channel, tick * 0.05,
                                              (tick + 1) * 0.05))
            listen_s.append(time.perf_counter() - start)
    listen_p90_us = np.percentile(listen_s, 90) * 1e6
    # The same 40 windows heard as blocks, as a controller with nothing
    # else due hears them: record_block + detect_frames, amortized.
    starts = [tick * 0.05 for tick in range(len(windows))]
    ends = [(tick + 1) * 0.05 for tick in range(len(windows))]

    def hear_blocks() -> list:
        channel.invalidate_render_cache()
        heard_rows = []
        while len(heard_rows) < len(starts):
            done = len(heard_rows)
            frames = microphone.record_block(channel, starts[done:],
                                             ends[done:])
            heard_rows += detector.detect_frames(
                frames, microphone.sample_rate,
                starts[done : done + len(frames)])
        return heard_rows

    assert [len(events) for events in hear_blocks()] == heard
    block_us = _best_of(hear_blocks, repeats=10) / len(windows) * 1e6
    _record_perf("detector_fft_50f_50ms", {
        "p50_us": p50_us,
        "p90_us": p90_us,
        "listen_window_p90_us": listen_p90_us,
        "block_listen_us_per_window": block_us,
        "paper_p90_budget_us": 350.0,
        "windows": len(per_window_s),
        "events_per_window": sum(heard) / len(windows),
    })
    print(f"\nFrequencyDetector.detect 50f/50ms: p50 {p50_us:.1f} us, "
          f"p90 {p90_us:.1f} us, listen window (record + detect) p90 "
          f"{listen_p90_us:.1f} us (paper budget 350 us), the 40 windows "
          f"heard as blocks {block_us:.1f} us/window amortized, "
          f"{sum(heard) / len(windows):.1f} events/window")


@pytest.mark.perf
def test_perf_spectrogram_batched_speedup():
    """The batched strided-frame spectrogram must beat the per-frame
    loop by >= 3x on a 10 s capture at 50 ms frames."""
    rng = np.random.default_rng(4)
    capture = sine_tone(1000.0, 10.0, level_db=62.0).mix(
        white_noise(10.0, level_db=45.0, rng=rng)
    )
    analyzer = SpectrumAnalyzer()

    times, freqs, mags = power_spectrogram(capture, 0.05, analyzer=analyzer)
    ref = power_spectrogram_reference(capture, 0.05, analyzer=analyzer)
    np.testing.assert_array_equal(times, ref[0])
    np.testing.assert_allclose(mags, ref[2], atol=1e-9)

    batched_s = _best_of(
        lambda: power_spectrogram(capture, 0.05, analyzer=analyzer),
        repeats=10,
    )
    looped_s = _best_of(
        lambda: power_spectrogram_reference(capture, 0.05, analyzer=analyzer),
        repeats=10,
    )
    speedup = looped_s / batched_s
    _record_perf("power_spectrogram_10s_50ms", {
        "looped_ms": looped_s * 1e3,
        "batched_ms": batched_s * 1e3,
        "speedup": speedup,
    })
    print(f"\npower_spectrogram 10s/50ms: looped {looped_s*1e3:.2f} ms, "
          f"batched {batched_s*1e3:.2f} ms, speedup {speedup:.1f}x")
    assert speedup >= 3.0


@pytest.mark.perf
def test_perf_workload_driver_vs_perflow_sources():
    """The columnar VectorizedFlowDriver must beat the per-flow-object
    source chain by >= 10x at 10k flows while emitting the identical
    per-flow packet counts (XEXT16 acceptance gate)."""
    from repro.experiments.xext16 import measure_speedup

    point = measure_speedup(num_flows=10_000, duration=2.0)
    assert point.counts_match, "vectorized/per-flow packet counts diverged"
    _record_perf("workload_driver_10k_flows_2s", {
        "packets": point.packets_vectorized,
        "reference_s": point.reference_wall_s,
        "vectorized_s": point.vectorized_wall_s,
        "speedup": point.speedup,
    })
    print(f"\nVectorizedFlowDriver 10k flows/2s: per-flow "
          f"{point.reference_wall_s:.2f} s, vectorized "
          f"{point.vectorized_wall_s:.2f} s, speedup {point.speedup:.1f}x")
    assert point.speedup >= 10.0


@pytest.mark.perf
def test_perf_departures_between():
    """Per-window cost of the columnar departure layer on the
    ``telemetry-flows`` bench population: ``scan-churn``, 10^5 flows,
    seed 11, 20 s in 80 batch windows of 0.25 s.  Records the per-window
    p50/p90 of consecutive windows (the driver's cursor path), the p50
    of the same windows called in reverse order (every call re-seeks
    the cursor), and pins the exact departure total (the bench's
    ``workload.packets``)."""
    from repro.net import build_workload

    population = build_workload("scan-churn", num_flows=100_000, seed=11,
                                duration=20.0).build()
    windows = [(index * 0.25, (index + 1) * 0.25) for index in range(80)]
    total = sum(len(population.departures_between(t0, t1)[0])
                for t0, t1 in windows)
    assert total == 365_490
    per_window_s = []
    for _ in range(3):
        for t0, t1 in windows:
            start = time.perf_counter()
            population.departures_between(t0, t1)
            per_window_s.append(time.perf_counter() - start)
    p50_us, p90_us = np.percentile(per_window_s, [50, 90]) * 1e6
    reseek_s = []
    for t0, t1 in reversed(windows):
        start = time.perf_counter()
        population.departures_between(t0, t1)
        reseek_s.append(time.perf_counter() - start)
    reseek_p50_us = float(np.median(reseek_s)) * 1e6
    _record_perf("departures_between_100k_flows_250ms", {
        "p50_us": p50_us,
        "p90_us": p90_us,
        "reseek_p50_us": reseek_p50_us,
        "windows": len(per_window_s),
        "departures": total,
    })
    print(f"\nFlowPopulation.departures_between 100k flows/0.25 s: "
          f"p50 {p50_us:.1f} us, p90 {p90_us:.1f} us, re-seek p50 "
          f"{reseek_p50_us:.1f} us, {total} departures")


@pytest.mark.perf
def test_perf_fleet_supervisor_disabled_overhead():
    """Acceptance gate for the self-healing loop: a serial ``run_fleet``
    with no fault plan, no hedging, no deadline and no checkpoint dir
    must produce the bit-identical fleet report within 5% of a bare
    in-process loop over the shard executor (recovery machinery must
    be free when unused)."""
    from repro.fleet import (
        FleetSpec,
        ShardJob,
        build_fleet_report,
        run_fleet,
        run_shard_job,
    )

    spec = FleetSpec(num_rooms=6, switches_per_room=4,
                     horizon=1.0, seed=17)

    def bare():
        start = time.perf_counter()
        shards = [run_shard_job(ShardJob(shard=shard))
                  for shard in spec.shard_specs(2)]
        return build_fleet_report(spec, "serial", 2, 1, shards, [],
                                  time.perf_counter() - start)

    supervised = run_fleet(spec, num_shards=2, backend="serial")
    assert (supervised.identity_signature()
            == bare().identity_signature()), \
        "idle supervisor changed the result"

    bare_s, supervised_s, overhead = _interleaved(
        bare, lambda: run_fleet(spec, num_shards=2, backend="serial"),
        rounds=30)
    _record_perf("fleet_supervisor_idle_overhead_6rooms_serial", {
        "bare_ms": bare_s * 1e3,
        "supervised_ms": supervised_s * 1e3,
        "idle_overhead": overhead,
    })
    print(f"\nidle supervisor overhead 6 rooms serial: "
          f"bare loop {bare_s*1e3:.1f} ms, "
          f"run_fleet {supervised_s*1e3:.1f} ms ({overhead:+.1%})")
    assert overhead < 0.05
