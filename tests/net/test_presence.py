"""Presence taps and the windows their presences are dispatched in.

A tap quantizes each departure onto its emitter's grid (``slot = t //
period``), keeps one presence per (slot, key), drops slots no later than
the key's last one, and pushes ``slot * period`` to the bus.  The bus
must dispatch every such presence in the window ``[slot * period,
(slot + 1) * period)`` it was quantized to: floor division alone puts a
time on a window's rounded start one window early (``0.5 // 0.1 ==
4.0``), which merges adjacent windows.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.telemetry import ToneEventBus
from repro.net import (
    BucketPresenceTap,
    PortPresenceTap,
    PresenceSink,
    Simulator,
    VectorizedFlowDriver,
    build_workload,
)
from repro.net.workload import DEFAULT_SCAN_PORTS

PERIODS = (0.1, 0.05, 1 / 30, 0.07, 0.25, 0.3)
NUM_KEYS = 6
FREQUENCIES = [1_000.0 + 20.0 * i for i in range(NUM_KEYS)]
PORTS = range(8_000, 8_000 + NUM_KEYS)


class KeyedPopulation:
    """The columns the taps read, for flows whose key is their index:
    flow ``i`` hashes to bucket ``i`` and sends to port ``8000 + i``;
    flow ``NUM_KEYS`` varies its key and sends to an unmonitored port."""

    static = np.append(np.ones(NUM_KEYS, dtype=bool), False)
    stable_hashes = np.append(np.arange(NUM_KEYS, dtype=np.uint64),
                              np.uint64(0))
    ports = np.append(np.arange(PORTS.start, PORTS.stop, dtype=np.int64),
                      np.int64(80))

    def dst_ports_for(self, flow_idx, ks):
        return self.ports[flow_idx]


def _time(slot: int, where: str, frac: float, period: float) -> float:
    """A departure time in or at the edge of ``slot``'s window."""
    edge = slot * period
    if where == "edge":
        return edge
    if where == "below":
        return max(float(np.nextafter(edge, -np.inf)), 0.0)
    return (slot + frac) * period


departures = st.lists(
    # A far slot spreads one batch over many grid slots.
    st.tuples(st.integers(0, 40) | st.just(20_000), st.sampled_from(("edge", "below", "in")),
              st.floats(0.0, 0.999), st.integers(0, NUM_KEYS)),
    max_size=60,
)


def _batches(period, rows, cuts):
    """Time-sorted departures cut into consecutive batches, like the
    driver's batch windows, with an empty batch at either end."""
    times = np.asarray([_time(s, w, f, period) for s, w, f, _flow in rows],
                       dtype=np.float64)
    flows = np.asarray([flow for *_rest, flow in rows], dtype=np.int64)
    order = np.argsort(times, kind="stable")
    times, flows = times[order], flows[order]
    edges = sorted({0, len(rows), *(min(c, len(rows)) for c in cuts)})
    empty = (times[:0], flows[:0])
    return [empty, *((times[a:b], flows[a:b])
                     for a, b in zip(edges, edges[1:])), empty]


def reference_tap(period, batches, key_of):
    """Per batch: the fresh (slot, key) presences, by ``np.unique`` over
    the packed pairs, and the per-key last slot carried to the next."""
    last = np.full(NUM_KEYS, -1, dtype=np.int64)
    pushed = []
    for times, flows in batches:
        keys, times = key_of(times, flows)
        slots = np.floor_divide(times, period).astype(np.int64)
        packed = np.unique(slots * NUM_KEYS + keys)
        slot, key = packed // NUM_KEYS, packed % NUM_KEYS
        fresh = slot > last[key]
        slot, key = slot[fresh], key[fresh]
        np.maximum.at(last, key, slot)
        pushed.append((slot, key, last.copy()))
    return pushed


def _bucket_keys(times, flows):
    static = KeyedPopulation.static[flows]
    return flows[static], times[static]


def _port_keys(times, flows):
    ports = KeyedPopulation.ports[flows]
    monitored = (ports >= PORTS.start) & (ports < PORTS.stop)
    return ports[monitored] - PORTS.start, times[monitored]


TAPS = {
    "bucket": (lambda period: BucketPresenceTap(FREQUENCIES, period),
               _bucket_keys),
    "port": (lambda period: PortPresenceTap(PORTS, FREQUENCIES, period),
             _port_keys),
}


class RecordingBus(ToneEventBus):
    """A bus that also keeps every batch pushed to it, in order."""

    def __init__(self, window):
        super().__init__(window)
        self.pushed = []

    def push_batch(self, frequencies, times):
        self.pushed.append((np.array(frequencies), np.array(times)))
        super().push_batch(frequencies, times)


@settings(max_examples=150, deadline=None)
@given(period=st.sampled_from(PERIODS), rows=departures,
       cuts=st.lists(st.integers(0, 60), max_size=4),
       tap_name=st.sampled_from(sorted(TAPS)))
def test_every_presence_is_dispatched_in_its_quantized_window(
        period, rows, cuts, tap_name):
    make_tap, key_of = TAPS[tap_name]
    tap = make_tap(period)
    bus = ToneEventBus(window=period)
    detections, windows = [], []
    bus.watch(FREQUENCIES, on_detection=detections.append)
    bus.on_window(lambda events, end: windows.append((list(events), end)))
    batches = _batches(period, rows, cuts)
    for times, flows in batches:
        tap.observe(times, flows, np.zeros_like(flows), KeyedPopulation(), bus)
    bus.dispatch()

    expected = sorted((slot * period, FREQUENCIES[key])
                      for slots, keys, _last in reference_tap(period, batches,
                                                             key_of)
                      for slot, key in zip(slots.tolist(), keys.tolist()))
    assert sorted((e.time, e.frequency) for e in detections) == expected
    assert bus.events_dispatched == tap.tones == len(expected)
    for events, end in windows:
        slot = round(events[0].time / period)
        assert {e.time for e in events} == {slot * period}
        assert end == slot * period + period


def test_telemetry_run_dispatches_one_event_per_tap_presence():
    """Every presence the taps push reaches the apps' windows: none is
    merged into the window before its own."""
    duration, period = 4.0, 0.1
    population = build_workload("scan-churn", num_flows=3_000, seed=11,
                                duration=duration).build()
    bus = RecordingBus(window=period)
    taps = [BucketPresenceTap([1_000.0 + 20.0 * i for i in range(64)], period),
            PortPresenceTap(DEFAULT_SCAN_PORTS,
                            [5_000.0 + 20.0 * i for i in range(20)], period)]
    sim = Simulator()
    VectorizedFlowDriver(sim, population, PresenceSink(bus, taps),
                         stop=duration).launch()
    sim.run(duration)
    heard = []
    bus.on_window(lambda events, end: heard.extend(
        (event.time, end) for event in events))
    bus.dispatch()

    assert bus.events_dispatched == sum(tap.tones for tap in taps)
    pushed_times = sorted(t for _f, times in bus.pushed for t in times.tolist())
    assert sorted(time for time, _end in heard) == pushed_times
    assert all(end == time + period for time, end in heard)


@settings(max_examples=150, deadline=None)
@given(period=st.sampled_from(PERIODS), rows=departures,
       cuts=st.lists(st.integers(0, 60), max_size=4),
       tap_name=st.sampled_from(sorted(TAPS)))
def test_taps_push_what_the_unique_reference_pushes(period, rows, cuts,
                                                    tap_name):
    """Multi-slot batches, departures on and just below slot edges,
    a key's last slot carried across batch edges, empty batches and
    sparse batches: each batch pushes the reference's presences in the
    reference's (slot, key) order, and leaves the same last slots."""
    make_tap, key_of = TAPS[tap_name]
    tap = make_tap(period)
    bus = RecordingBus(window=period)
    batches = _batches(period, rows, cuts)
    for (times, flows), (slot, key, last) in zip(
            batches, reference_tap(period, batches, key_of)):
        before = len(bus.pushed)
        tap.observe(times, flows, np.zeros_like(flows), KeyedPopulation(), bus)
        if len(slot):
            frequencies, pushed_times = bus.pushed[-1]
            np.testing.assert_array_equal(frequencies,
                                          np.asarray(FREQUENCIES)[key])
            np.testing.assert_array_equal(pushed_times, slot * period)
        assert len(bus.pushed) == before + bool(len(slot))
        np.testing.assert_array_equal(tap._last_slot, last)
    assert tap.tones == sum(len(pushed[1]) for pushed in bus.pushed)
