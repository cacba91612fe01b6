"""Merge semantics for the fleet rollup: ``Instrument.merge`` and
``MetricsRegistry.merge``.

These are the contracts the sharded fleet driver leans on: merging N
shard registries must behave exactly like one process having observed
everything, for every instrument kind, including the ``#n`` de-dup
suffixes that keep per-instance streams aligned across shards.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    CallbackGauge,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


# ----------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------

def test_counter_merge_sums():
    a, b = Counter("hits"), Counter("hits")
    a.inc(3)
    b.inc(4)
    assert a.merge(b).value == 7
    assert b.value == 4  # the source is untouched


def test_registry_merges_counters_across_shards():
    fleet, shard1, shard2 = (MetricsRegistry() for _ in range(3))
    shard1.counter("fleet.emissions").inc(10)
    shard2.counter("fleet.emissions").inc(5)
    fleet.merge(shard1).merge(shard2)
    assert fleet.counter("fleet.emissions").value == 15


# ----------------------------------------------------------------------
# gauges
# ----------------------------------------------------------------------

def test_gauge_last_policy_merge_order_wins():
    a, b = Gauge("depth"), Gauge("depth")
    a.set(3.0)
    b.set(1.0)
    assert a.merge(b, policy="last").value == 1.0
    assert a.updates == 2


def test_gauge_max_policy_keeps_peak():
    a, b = Gauge("peak"), Gauge("peak")
    a.set(3.0)
    b.set(1.0)
    assert a.merge(b, policy="max").value == 3.0
    b2 = Gauge("peak")
    b2.set(9.0)
    assert a.merge(b2, policy="max").value == 9.0


def test_untouched_gauge_never_overwrites_a_live_reading():
    live, idle = Gauge("depth"), Gauge("depth")
    live.set(5.0)
    assert live.merge(idle, policy="last").value == 5.0
    assert live.updates == 1


def test_untouched_self_takes_other_under_max_policy():
    idle, live = Gauge("peak"), Gauge("peak")
    live.set(-2.0)  # below idle's default 0.0 — policy must still take it
    assert idle.merge(live, policy="max").value == -2.0


def test_unknown_gauge_policy_rejected():
    with pytest.raises(ValueError, match="policy"):
        Gauge("g").merge(Gauge("g"), policy="median")


def test_callback_gauge_is_sampled_into_plain_gauge():
    fleet, shard = MetricsRegistry(), MetricsRegistry()
    shard.gauge_fn("heap.depth", lambda: 7.0)
    fleet.merge(shard)
    merged = fleet.get("heap.depth")
    assert isinstance(merged, Gauge)
    assert merged.value == 7.0


def test_callback_gauge_on_self_side_rejected():
    fleet, shard = MetricsRegistry(), MetricsRegistry()
    fleet.gauge_fn("heap.depth", lambda: 1.0)
    shard.gauge("heap.depth").set(2.0)
    with pytest.raises(TypeError, match="heap.depth"):
        fleet.merge(shard)


# ----------------------------------------------------------------------
# histograms
# ----------------------------------------------------------------------

def test_histogram_merge_exact_running_stats():
    a, b = Histogram("lag"), Histogram("lag")
    for v in (1.0, 2.0, 3.0):
        a.observe(v)
    for v in (10.0, 0.5):
        b.observe(v)
    a.merge(b)
    assert a.count == 5
    assert a.total == 16.5
    assert a.min == 0.5
    assert a.max == 10.0
    assert (a.quantile(0.0), a.quantile(0.25), a.p50, a.quantile(0.75),
            a.quantile(1.0)) == (0.5, 1.0, 2.0, 3.0, 10.0)


def test_histogram_merge_empty_other_is_noop():
    a = Histogram("lag")
    a.observe(4.0)
    before = a.snapshot()
    a.merge(Histogram("lag"))
    assert a.snapshot() == before
    assert a.min == 4.0  # the empty side's inf sentinels never leak


def test_empty_histogram_mean_and_quantiles_are_pinned_to_zero():
    h = Histogram("lag")
    assert h.mean == 0.0
    assert h.quantile(0.5) == 0.0
    assert h.p50 == 0.0 and h.p90 == 0.0 and h.p99 == 0.0
    assert not math.isnan(h.mean)
    assert h.snapshot() == {"type": "histogram", "count": 0}


def test_merge_into_empty_self_adopts_other():
    a, b = Histogram("lag"), Histogram("lag")
    b.observe(2.0)
    a.merge(b)
    assert (a.count, a.min, a.max) == (1, 2.0, 2.0)


# ----------------------------------------------------------------------
# registry-level semantics
# ----------------------------------------------------------------------

def test_dedup_suffixed_names_stay_aligned_across_shards():
    fleet, shard1, shard2 = (MetricsRegistry() for _ in range(3))
    for shard in (shard1, shard2):
        shard.register(Counter("arq.sent")).inc(1)
        shard.register(Counter("arq.sent")).inc(10)  # becomes arq.sent#2
    fleet.merge(shard1).merge(shard2)
    assert fleet.counter("arq.sent").value == 2
    assert fleet.counter("arq.sent#2").value == 20
    assert "arq.sent#3" not in fleet


def test_kind_collision_raises_typeerror():
    fleet, shard = MetricsRegistry(), MetricsRegistry()
    fleet.counter("x").inc()
    shard.gauge("x").set(1.0)
    with pytest.raises(TypeError, match="'x'"):
        fleet.merge(shard)


def test_merge_returns_self_for_chaining():
    fleet = MetricsRegistry()
    assert fleet.merge(MetricsRegistry()) is fleet


# ----------------------------------------------------------------------
# the property: merge == one process saw everything
# ----------------------------------------------------------------------

#: Finite floats whose bin is finite (``value / RESOLUTION`` does not
#: overflow), plus values on or beside half-bin ties and both zeros.
finite = (st.floats(allow_nan=False, allow_infinity=False,
                    min_value=-1e300, max_value=1e300)
          | st.integers(-5000, 5000).map(lambda n: n * 5e-4)
          | st.sampled_from([0.0, -0.0]))


@given(st.lists(finite, max_size=50), st.lists(finite, max_size=50))
def test_histogram_merge_equals_concatenated_observations(xs, ys):
    a, b, reference = Histogram("h"), Histogram("h"), Histogram("h")
    for v in xs:
        a.observe(v)
    for v in ys:
        b.observe(v)
    for v in xs + ys:
        reference.observe(v)
    a.merge(b)
    assert repr(a.snapshot()) == repr(reference.snapshot())


@settings(max_examples=200, deadline=None)
@given(st.lists(finite, max_size=60), st.data())
def test_any_partition_and_merge_order_gives_the_same_histogram(values, data):
    """Values spread over any number of histograms (fed one by one or
    in batches), then merged pairwise in any order and tree shape: the
    snapshot is byte-identical to one histogram that saw them all."""
    reference = Histogram("h")
    reference.observe_many(values)
    parts = [Histogram("h") for _ in range(data.draw(st.integers(1, 6)))]
    owner = data.draw(st.lists(st.integers(0, len(parts) - 1),
                               min_size=len(values), max_size=len(values)))
    for index, part in enumerate(parts):
        mine = [v for v, o in zip(values, owner) if o == index]
        if data.draw(st.booleans()):
            part.observe_many(mine)
        else:
            for v in mine:
                part.observe(v)
    while len(parts) > 1:
        into = parts.pop(data.draw(st.integers(0, len(parts) - 1)))
        other = parts.pop(data.draw(st.integers(0, len(parts) - 1)))
        parts.append(into.merge(other))
    assert repr(parts[0].snapshot()) == repr(reference.snapshot())


@given(st.lists(st.integers(min_value=0, max_value=100), max_size=20),
       st.lists(st.integers(min_value=0, max_value=100), max_size=20))
def test_registry_merge_counter_totals_are_additive(xs, ys):
    a, b = MetricsRegistry(), MetricsRegistry()
    for v in xs:
        a.counter("n").inc(v)
    for v in ys:
        b.counter("n").inc(v)
    a.merge(b)
    assert a.counter("n").value == sum(xs) + sum(ys)
