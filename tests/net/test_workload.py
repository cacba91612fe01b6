"""Workload layer tests: determinism, the scalar↔vector equivalence
contract, pattern semantics, sinks and the audio-free event bus."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.apps import (
    FlowToneMapper,
    HeavyHitterDetectorApp,
    PortScanDetectorApp,
    PortToneMapper,
    heavy_hitter_truth_buckets,
    scan_truth_intervals,
    score_heavy_hitter,
    score_port_scan,
)
from repro.core.frequency_plan import Allocation
from repro.core.telemetry import ToneEventBus
from repro.net import (
    BucketPresenceTap,
    ChurnPattern,
    CountingHost,
    CountingSink,
    ElephantMicePattern,
    FlowPopulation,
    HostSink,
    OnOffPattern,
    PortPresenceTap,
    PortScanPattern,
    PresenceSink,
    Simulator,
    VectorizedFlowDriver,
    WorkloadSpec,
    build_workload,
    launch_reference_sources,
    single_switch_topology,
)
from repro.net.flowpop import (
    LABEL_ELEPHANT,
    LABEL_MOUSE,
    LABEL_SCAN,
    VARY_DST_PORT,
)
from repro.net.workload import DEFAULT_SCAN_PORTS, _columns

SEED = 16


def _population(spec: WorkloadSpec) -> FlowPopulation:
    population = spec.build()
    assert len(population) > 0
    return population


def reference_departures_between(population, t0, t1):
    """Every active flow's whole widened candidate range, expanded and
    exact-filtered — the reference :meth:`FlowPopulation.departures_between`
    must match array for array (same values, dtypes and order)."""
    lo = np.maximum(t0, population.starts)
    hi = np.minimum(t1, population.stops)
    k_lo = np.ceil((lo - population.phases) * population.rates) - 1.0
    np.maximum(k_lo, 0.0, out=k_lo)
    k_hi = np.ceil((hi - population.phases) * population.rates) + 1.0
    counts = np.where(hi > lo, k_hi - k_lo, 0.0)
    counts = np.maximum(counts, 0.0).astype(np.int64)
    total = int(counts.sum())
    empty = (np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64),
             np.empty(0, dtype=np.int64))
    if total == 0:
        return empty

    flow_idx = np.repeat(np.arange(population.n, dtype=np.int64), counts)
    offsets = np.cumsum(counts) - counts
    ks = (np.arange(total, dtype=np.int64)
          - np.repeat(offsets, counts)
          + np.repeat(k_lo.astype(np.int64), counts))
    t = (population.phases[flow_idx]
         + ks.astype(np.float64) / population.rates[flow_idx])

    mask = (t >= t0) & (t < t1)
    mask &= (t >= population.starts[flow_idx]) & (t < population.stops[flow_idx])
    rel = t - population.starts[flow_idx]
    period = (population.on_durations[flow_idx]
              + population.off_durations[flow_idx])
    mask &= np.mod(rel, period) < population.on_durations[flow_idx]
    if population.diurnal_amplitude > 0.0:
        mask &= (population._thinning_u(flow_idx, ks)
                 < population._modulation(t))

    if not mask.any():
        return empty
    flow_idx, ks, t = flow_idx[mask], ks[mask], t[mask]
    order = np.lexsort((ks, flow_idx, t))
    return t[order], flow_idx[order], ks[order]


def assert_departures_match_reference(population, t0, t1):
    got = population.departures_between(t0, t1)
    want = reference_departures_between(population, t0, t1)
    for name, g, w in zip(("times", "flow_idx", "ks"), got, want):
        assert g.dtype == w.dtype, (name, t0, t1)
        np.testing.assert_array_equal(g, w, err_msg=f"{name} [{t0}, {t1})")


def _drive(population, duration, batch_window=0.25):
    sim = Simulator()
    sink = CountingSink(population)
    driver = VectorizedFlowDriver(sim, population, sink, stop=duration,
                                  batch_window=batch_window)
    driver.launch()
    sim.run(duration)
    return sink, driver


class TestDeterminism:
    def test_same_seed_same_population(self):
        a = build_workload("elephants-mice", num_flows=300, seed=SEED).build()
        b = build_workload("elephants-mice", num_flows=300, seed=SEED).build()
        assert a.src_ips == b.src_ips
        assert a.dst_ips == b.dst_ips
        np.testing.assert_array_equal(a.src_ports, b.src_ports)
        np.testing.assert_array_equal(a.rates, b.rates)
        np.testing.assert_array_equal(a.phases, b.phases)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.stable_hashes, b.stable_hashes)

    def test_same_seed_same_departure_schedule(self):
        a = build_workload("scan-churn", num_flows=200, seed=SEED).build()
        b = build_workload("scan-churn", num_flows=200, seed=SEED).build()
        ta, fa, ka = a.departures_between(0.0, 8.0)
        tb, fb, kb = b.departures_between(0.0, 8.0)
        np.testing.assert_array_equal(ta, tb)
        np.testing.assert_array_equal(fa, fb)
        np.testing.assert_array_equal(ka, kb)

    def test_different_seed_different_population(self):
        a = build_workload("mice", num_flows=100, seed=1).build()
        b = build_workload("mice", num_flows=100, seed=2).build()
        assert not np.array_equal(a.rates, b.rates)

    def test_batch_window_does_not_change_emissions(self):
        population = build_workload("scan-churn", num_flows=150,
                                    seed=SEED).build()
        fine, _ = _drive(population, 4.0, batch_window=0.05)
        coarse, _ = _drive(population, 4.0, batch_window=1.0)
        assert fine.total == coarse.total
        np.testing.assert_array_equal(fine.per_flow, coarse.per_flow)


class TestDepartureModel:
    def test_on_off_gates_departures(self):
        spec = WorkloadSpec(seed=SEED, duration=4.0, patterns=(
            OnOffPattern(num_flows=20, rate_range=(10.0, 10.0),
                         on_range=(0.5, 0.5), off_range=(0.5, 0.5)),
        ))
        population = _population(spec)
        times, flow_idx, _ks = population.departures_between(0.0, 4.0)
        rel = times - population.starts[flow_idx]
        assert np.all(rel % 1.0 < 0.5)
        # Roughly half the always-on volume: 20 flows * 10 pps * 4 s / 2.
        assert 300 < len(times) < 500

    def test_diurnal_thins_toward_trough(self):
        spec = WorkloadSpec(
            seed=SEED, duration=8.0,
            patterns=(ElephantMicePattern(num_mice=0, num_elephants=50),),
            diurnal_amplitude=0.8, diurnal_period=8.0,
        )
        population = _population(spec)
        times, _f, _k = population.departures_between(0.0, 8.0)
        # Triangle wave: m(0) = 0.2 rising to m(period/2) = 1 — the
        # window around the crest must carry clearly more traffic than
        # the opening trough.
        trough = np.count_nonzero(times < 2.0)
        peak = np.count_nonzero((times >= 3.0) & (times < 5.0))
        assert trough < peak * 0.6

    def test_scan_covers_all_ports_in_order(self):
        spec = WorkloadSpec(seed=SEED, duration=2.0, patterns=(
            PortScanPattern(first_port=8000, num_ports=20,
                            probe_rate=100.0),
        ))
        population = _population(spec)
        assert population.variation[0] == VARY_DST_PORT
        times, flow_idx, ks = population.departures_between(0.0, 1.0)
        ports = population.dst_ports_for(flow_idx, ks)
        assert set(ports.tolist()) == set(range(8000, 8020))
        # Sequential sweep: the first 20 probes walk the ports in order.
        np.testing.assert_array_equal(ports[:20],
                                      np.arange(8000, 8020))

    def test_churn_flows_live_and_die(self):
        spec = WorkloadSpec(seed=SEED, duration=8.0, patterns=(
            ChurnPattern(num_flows=100, lifetime_range=(0.3, 0.5)),
        ))
        population = _population(spec)
        assert np.all(np.isfinite(population.stops))
        assert np.all(population.stops - population.starts <= 0.5 + 1e-9)
        times, flow_idx, _ks = population.departures_between(0.0, 8.0)
        assert np.all(times >= population.starts[flow_idx])
        assert np.all(times < population.stops[flow_idx])

    def test_port_sweep_past_65535_rejected(self):
        # The per-flow path rejects the same key: flow_key(0, 10) would
        # carry dst_port 65540.
        spec = WorkloadSpec(patterns=(
            PortScanPattern(first_port=65530, num_ports=20),))
        with pytest.raises(ValueError, match="dst_port"):
            spec.build()
        top = WorkloadSpec(patterns=(
            PortScanPattern(first_port=65516, num_ports=20),)).build()
        assert top.dst_ports_for(np.zeros(20, dtype=np.int64),
                                 np.arange(20)).max() == 65535

    @pytest.mark.parametrize("column", ["src_ports", "dst_ports"])
    @pytest.mark.parametrize("port", [-1, 65536])
    def test_static_ports_range_checked(self, column, port):
        population = WorkloadSpec(seed=SEED, patterns=(
            ElephantMicePattern(num_mice=5),)).build()
        ports = getattr(population, column).copy()
        ports[3] = port
        columns = {name: getattr(population, name) for name in (
            "src_ips", "dst_ips", "src_ports", "dst_ports", "protocols",
            "rates", "phases", "starts", "stops", "on_durations",
            "off_durations", "labels", "variation", "vary_base",
            "vary_span", "packet_sizes")}
        columns[column] = ports
        with pytest.raises(ValueError, match=column):
            FlowPopulation(**columns)

    def test_columns_are_frozen(self):
        population = build_workload("bursty-diurnal", num_flows=50,
                                    seed=SEED).build()
        with pytest.raises(ValueError, match="read-only"):
            population.rates[0] = 2.0
        for name, value in vars(population).items():
            if isinstance(value, np.ndarray) and not name.startswith("_"):
                assert not value.flags.writeable, name

    def test_labels_and_counts(self):
        population = build_workload("scan-churn", num_flows=500,
                                    seed=SEED).build()
        counts = population.label_counts()
        assert counts["scan"] >= 1
        assert counts["churn"] > 0
        rows = population.indices_with_label(LABEL_SCAN)
        assert np.all(population.labels[rows] == LABEL_SCAN)


class TestScalarVectorEquivalence:
    def test_reference_sources_match_driver_exactly(self):
        population = build_workload("scan-churn", num_flows=120,
                                    seed=SEED, duration=3.0).build()
        sink, _ = _drive(population, 3.0)

        sim = Simulator()
        host = CountingHost(sim)
        sources = launch_reference_sources(host, population, 3.0)
        sim.run(3.0)
        reference = [source.packets_emitted for source in sources]
        assert reference == sink.per_flow.tolist()
        assert host.packets_sent == sink.total

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           num_flows=st.integers(1, 40),
           duration=st.floats(0.5, 4.0),
           batch_window=st.sampled_from([0.1, 0.3, 0.7]))
    def test_equivalence_property(self, seed, num_flows, duration,
                                  batch_window):
        """Any seeded mix: the vectorized driver and the per-flow
        reference emit identical per-flow packet counts."""
        spec = WorkloadSpec(
            seed=seed, duration=duration,
            patterns=(
                ElephantMicePattern(
                    num_mice=num_flows,
                    num_elephants=num_flows // 8,
                    mouse_rate_range=(0.5, 20.0),
                ),
                PortScanPattern(probe_rate=30.0,
                                start=duration * 0.25),
            ),
            diurnal_amplitude=0.5, diurnal_period=duration,
        )
        population = spec.build()
        sink, _ = _drive(population, duration, batch_window=batch_window)

        sim = Simulator()
        host = CountingHost(sim)
        sources = launch_reference_sources(host, population, duration)
        sim.run(duration)
        reference = [source.packets_emitted for source in sources]
        assert reference == sink.per_flow.tolist()

    def test_scalar_accept_matches_vector_mask(self):
        population = WorkloadSpec(
            seed=SEED, duration=4.0,
            patterns=(ElephantMicePattern(num_mice=30, num_elephants=2),),
            diurnal_amplitude=0.7, diurnal_period=4.0,
        ).build()
        times, flow_idx, ks = population.departures_between(0.0, 4.0)
        for t, i, k in zip(times[:200], flow_idx[:200], ks[:200]):
            assert population.accept(int(i), int(k), float(t))


class TestWindowedDepartures:
    """:meth:`FlowPopulation.departures_between` expands only the flows
    its cursor names as due in the window; its output must equal the
    full-range reference expansion bit for bit, on any window and
    after any sequence of earlier windows."""

    @staticmethod
    def _mixed_population(seed, num_flows, duration, diurnal_amplitude):
        """Every pattern at once: steady, churning, duty-cycled and
        varying-key flows, optionally diurnally thinned."""
        return WorkloadSpec(
            seed=seed, duration=duration,
            patterns=(
                ElephantMicePattern(num_mice=num_flows,
                                    num_elephants=num_flows // 8 + 1,
                                    mouse_rate_range=(0.5, 20.0)),
                ChurnPattern(num_flows=num_flows,
                             lifetime_range=(0.05, duration / 2)),
                OnOffPattern(num_flows=num_flows // 2 + 1,
                             on_range=(0.05, 0.4), off_range=(0.05, 0.4)),
                PortScanPattern(probe_rate=30.0, start=duration * 0.25),
            ),
            diurnal_amplitude=diurnal_amplitude, diurnal_period=duration,
        ).build()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           num_flows=st.integers(1, 40),
           duration=st.floats(0.5, 4.0),
           diurnal_amplitude=st.sampled_from([0.0, 0.6]),
           data=st.data())
    def test_departures_match_reference(self, seed, num_flows, duration,
                                        diurnal_amplitude, data):
        population = self._mixed_population(seed, num_flows, duration,
                                            diurnal_amplitude)
        times, _flow_idx, _ks = reference_departures_between(
            population, 0.0, duration)
        assert len(times)
        edges = np.concatenate([
            [0.0, duration], times, population.starts,
            population.stops[np.isfinite(population.stops)],
        ])
        edge = (st.sampled_from(edges.tolist())
                | st.floats(0.0, duration, allow_nan=False))
        one_ulp = st.sampled_from(times.tolist()).map(
            lambda t: (t, float(np.nextafter(t, np.inf))))
        # Arbitrary (t0, t1) pairs: overlapping, out of order, empty,
        # reversed and one-ulp windows, edges exactly on departures,
        # starts and stops; then the whole-horizon call the truth
        # scorers make.
        windows = data.draw(st.lists(st.tuples(edge, edge) | one_ulp,
                                     min_size=1, max_size=12))
        windows.append((0.0, duration))
        for t0, t1 in windows:
            assert_departures_match_reference(population, t0, t1)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           num_flows=st.integers(1, 40),
           duration=st.floats(0.5, 4.0),
           diurnal_amplitude=st.sampled_from([0.0, 0.6]),
           data=st.data())
    def test_cursor_walk_matches_reference(self, seed, num_flows, duration,
                                           diurnal_amplitude, data):
        """Mostly consecutive windows, as the driver makes them, mixed
        with repeats, jumps back and forth, and empty and reversed
        windows: each call equals the reference whatever the cursor
        held before it."""
        population = self._mixed_population(seed, num_flows, duration,
                                            diurnal_amplitude)
        length = st.floats(0.0, duration / 4, allow_nan=False)
        moves = data.draw(st.lists(
            st.sampled_from(["next"] * 4 + ["repeat", "jump", "empty",
                                            "reversed"]),
            min_size=1, max_size=30))
        t0, t1 = 0.0, 0.0
        for move in moves:
            if move == "next":
                t0, t1 = t1, t1 + data.draw(length)
            elif move == "jump":
                t0 = data.draw(st.floats(0.0, duration, allow_nan=False))
                t1 = t0 + data.draw(length)
            elif move == "empty":
                t0 = t1 = data.draw(st.sampled_from([t1, t0]))
            elif move == "reversed":
                t0, t1 = t1, t1 - data.draw(length)
            assert_departures_match_reference(population, t0, t1)

    def test_empty_and_reversed_windows_leave_cursor(self):
        """A window that returns nothing must not move the cursor: the
        window after it is served from where the last real one ended."""
        population = build_workload("scan-churn", num_flows=400, seed=SEED,
                                    duration=4.0).build()
        for t0, t1 in [(0.0, 1.0), (0.5, 0.5), (2.0, 0.5), (0.5, 1.5),
                       (1.5, 2.5)]:
            assert_departures_match_reference(population, t0, t1)

    def test_drivers_sharing_a_population_match_solo_runs(self):
        population = build_workload("scan-churn", num_flows=300, seed=SEED,
                                    duration=4.0).build()
        solo_fine, _ = _drive(population, 4.0, batch_window=0.25)
        solo_coarse, _ = _drive(population, 4.0, batch_window=0.4)
        sim = Simulator()
        fine, coarse = CountingSink(population), CountingSink(population)
        for sink, window in ((fine, 0.25), (coarse, 0.4)):
            VectorizedFlowDriver(sim, population, sink, stop=4.0,
                                 batch_window=window).launch()
        sim.run(4.0)
        for shared, solo in ((fine, solo_fine), (coarse, solo_coarse)):
            assert shared.total == solo.total
            np.testing.assert_array_equal(shared.per_flow, solo.per_flow)

    @pytest.mark.parametrize("mix", ["mice", "elephants-mice", "scan-churn",
                                     "bursty-diurnal"])
    def test_named_mix_windows_match_reference(self, mix):
        population = build_workload(mix, num_flows=400, seed=SEED,
                                    duration=4.0).build()
        for start in np.arange(0.0, 4.0, 0.25):
            assert_departures_match_reference(population, float(start),
                                              float(start) + 0.25)
        assert_departures_match_reference(population, 0.0, 4.0)

    def test_equal_times_order_by_flow_then_ordinal(self):
        """Flows that depart at the same instants come out in flow
        order, then ordinal order, however the sort breaks ties."""
        n = 300
        columns = _columns(n)
        columns["rates"] = np.full(n, 8.0)
        columns["phases"] = np.where(np.arange(n) % 3 == 0, 0.0, 0.0625)
        population = FlowPopulation(**columns)
        times, flow_idx, _ks = population.departures_between(0.0, 1.0)
        assert (np.diff(times) == 0).sum() > n
        for t0, t1 in [(0.0, 1.0), (1.0, 2.0), (0.5, 3.0)]:
            assert_departures_match_reference(population, t0, t1)

    def test_expands_only_departing_candidates(self):
        """Without duty cycles or thinning, every candidate expanded
        departs: each due flow's run ends exactly at the window edge."""
        population = build_workload("scan-churn", num_flows=2_000,
                                    seed=SEED, duration=4.0).build()
        departures = sum(
            len(population.departures_between(start, start + 0.25)[0])
            for start in np.arange(0.0, 4.0, 0.25).tolist())
        assert departures > 0
        assert population.candidates_expanded == departures


class TestSinks:
    def test_host_sink_sends_real_packets(self):
        sim = Simulator()
        topo = single_switch_topology(sim, 2, bandwidth_bps=50_000_000,
                                      access_bandwidth_bps=50_000_000)
        population = build_workload(
            "elephants-mice", num_flows=20, seed=SEED, duration=2.0,
        ).build().retarget(topo.hosts["h2"].ip)
        sink = HostSink(topo.hosts["h1"], population)
        driver = VectorizedFlowDriver(sim, population, sink, stop=2.0)
        driver.launch()
        sim.run(2.5)
        assert driver.packets_emitted > 0
        assert topo.hosts["h2"].packets_received.total == \
            driver.packets_emitted

    def test_retarget_recomputes_hashes(self):
        population = build_workload("elephants-mice", num_flows=20,
                                    seed=SEED).build()
        retargeted = population.retarget("10.0.0.2")
        assert set(retargeted.dst_ips) == {"10.0.0.2"}
        assert retargeted.flow_key(0).dst_ip == "10.0.0.2"
        for i in np.flatnonzero(retargeted.static):
            assert retargeted.stable_hashes[i] == \
                np.uint64(retargeted.flow_key(int(i)).stable_hash())
        # Same traffic model, different keys.
        np.testing.assert_array_equal(population.rates, retargeted.rates)
        assert not np.array_equal(population.stable_hashes,
                                  retargeted.stable_hashes)

    def test_presence_tap_dedupes_within_window(self):
        frequencies = [1000.0 + 20 * i for i in range(8)]
        tap = BucketPresenceTap(frequencies, period=0.1)
        population = WorkloadSpec(seed=SEED, duration=1.0, patterns=(
            ElephantMicePattern(num_mice=0, num_elephants=4,
                                elephant_rate_range=(100.0, 100.0)),
        )).build()
        bus = ToneEventBus(window=0.1)
        sim = Simulator()
        sink = PresenceSink(bus, [tap])
        driver = VectorizedFlowDriver(sim, population, sink, stop=1.0)
        driver.launch()
        sim.run(1.0)
        # 4 elephants at 100 pps for 1 s = ~400 packets, but at most
        # (distinct buckets) x (10 windows) presences.
        buckets = len(set(
            int(h % np.uint64(len(frequencies)))
            for h in population.stable_hashes
        ))
        assert driver.packets_emitted > 300
        assert tap.tones <= buckets * 11


class TestToneEventBus:
    def test_windows_and_onset_suppression(self):
        bus = ToneEventBus(window=0.1)
        onsets, detections, windows = [], [], []
        bus.watch([700.0], on_detection=detections.append,
                  on_onset=onsets.append)
        bus.on_window(lambda events, end: windows.append(end))
        # Present in three consecutive windows, then a gap, then again.
        for slot in (0, 1, 2, 5):
            bus.push(700.0, slot * 0.1 + 0.01)
        delivered = bus.dispatch()
        assert delivered == 4
        assert len(detections) == 4
        # Onsets: suppressed while contiguous, fresh after the gap.
        assert [round(e.time, 1) for e in onsets] == [0.0, 0.5]
        assert windows == pytest.approx([0.1, 0.2, 0.3, 0.6])

    def test_suppression_tracked_across_dispatch_calls(self):
        bus = ToneEventBus(window=0.1)
        onsets = []
        bus.watch([500.0], on_onset=onsets.append)
        bus.push(500.0, 0.0)
        bus.dispatch()
        bus.push(500.0, 0.1)   # contiguous with the previous call
        bus.dispatch()
        bus.push(500.0, 0.4)   # gap -> new onset
        bus.dispatch()
        assert len(onsets) == 2

    def test_duplicate_presences_collapse(self):
        bus = ToneEventBus(window=0.1)
        detections = []
        bus.watch([600.0], on_detection=detections.append)
        bus.push_batch(np.asarray([600.0, 600.0, 600.0]),
                       np.asarray([0.01, 0.05, 0.09]))
        assert bus.dispatch() == 1
        assert len(detections) == 1


class TestEvaluation:
    def _detector_run(self, mix, num_flows=400, duration=4.0):
        population = build_workload(mix, num_flows=num_flows, seed=SEED,
                                    duration=duration).build()
        buckets = Allocation("t-hh", tuple(
            1000.0 + 20.0 * i for i in range(64)))
        ports = Allocation("t-scan", tuple(
            3000.0 + 20.0 * i for i in range(len(DEFAULT_SCAN_PORTS))))
        bus = ToneEventBus(window=0.1)
        hh = HeavyHitterDetectorApp(bus, FlowToneMapper(buckets))
        scan = PortScanDetectorApp(
            bus, PortToneMapper(ports, DEFAULT_SCAN_PORTS))
        sim = Simulator()
        sink = PresenceSink(bus, [
            BucketPresenceTap(list(buckets.frequencies), 0.1),
            PortPresenceTap(DEFAULT_SCAN_PORTS, list(ports.frequencies),
                            0.1),
        ])
        VectorizedFlowDriver(sim, population, sink, stop=duration).launch()
        sim.run(duration)
        bus.dispatch()
        hh.finalize(duration)
        scan.finalize(duration)
        return population, hh, scan, duration

    def test_elephants_scored_against_truth(self):
        population, hh, _scan, duration = self._detector_run(
            "elephants-mice")
        truth = heavy_hitter_truth_buckets(population, 64)
        assert truth  # the mix plants at least one elephant
        pr = score_heavy_hitter(hh, population)
        assert pr.recall == 1.0
        assert pr.true_positives == len(truth)

    def test_scan_campaign_scored_against_truth(self):
        population, _hh, scan, duration = self._detector_run("scan-churn")
        truth = scan_truth_intervals(population, DEFAULT_SCAN_PORTS,
                                     1.0, duration)
        assert truth  # the campaign is hot in at least one interval
        pr = score_port_scan(scan, population, DEFAULT_SCAN_PORTS,
                             duration)
        assert pr.recall == 1.0

    def test_mice_only_has_no_truth(self):
        population = build_workload("mice", num_flows=100,
                                    seed=SEED).build()
        assert heavy_hitter_truth_buckets(population, 64) == set()
        assert np.count_nonzero(
            population.labels == LABEL_ELEPHANT) == 0
        assert np.all(population.labels == LABEL_MOUSE)


class TestBuildWorkload:
    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError, match="mice"):
            build_workload("no-such-mix")

    def test_all_named_mixes_build(self):
        from repro.net import WORKLOAD_MIXES
        for name in WORKLOAD_MIXES:
            population = build_workload(name, num_flows=50, seed=SEED,
                                        duration=2.0).build()
            assert len(population) > 0
