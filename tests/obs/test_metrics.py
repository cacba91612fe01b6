"""Unit tests for the metric instruments and registry."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.artifact import export_json
from repro.obs import (
    RESOLUTION,
    CallbackGauge,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_defaults_to_one(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative_increment(self):
        counter = Counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestGauge:
    def test_set_tracks_last_value_and_updates(self):
        gauge = Gauge("g")
        gauge.set(3.0)
        gauge.set(1.5)
        assert gauge.value == 1.5
        assert gauge.updates == 2

    def test_callback_gauge_pulls_at_read_time(self):
        backing = [0]
        gauge = CallbackGauge("g", lambda: backing[0])
        assert gauge.value == 0
        backing[0] = 7
        assert gauge.value == 7


class TestHistogram:
    def test_exact_quantiles_small_sample(self):
        hist = Histogram("h")
        for value in range(1, 101):  # 1..100
            hist.observe(float(value))
        assert hist.count == 100
        assert hist.mean == pytest.approx(50.5)
        assert hist.min == 1.0
        assert hist.max == 100.0
        # Linear interpolation over 100 samples: p50 between 50 and 51.
        assert hist.p50 == pytest.approx(50.5)
        assert hist.p90 == pytest.approx(90.1)
        assert hist.p99 == pytest.approx(99.01)

    def test_quantile_interpolates(self):
        hist = Histogram("h")
        hist.observe(0.0)
        hist.observe(10.0)
        assert hist.quantile(0.5) == pytest.approx(5.0)
        assert hist.quantile(0.0) == 0.0
        assert hist.quantile(1.0) == 10.0

    def test_quantile_rejects_out_of_range(self):
        hist = Histogram("h")
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_empty_histogram_reports_zero(self):
        hist = Histogram("h")
        assert hist.mean == 0.0
        assert hist.p99 == 0.0
        assert hist.snapshot() == {"type": "histogram", "count": 0}

    def test_every_observation_counts_in_its_bin(self):
        hist = Histogram("h")
        for value in range(100_000):
            hist.observe(value * 1e-3)
        assert hist.count == 100_000
        assert (hist.min, hist.max) == (0.0, 99.999)
        # One observation per 1 µs bin: the quantiles span them all.
        assert hist.p50 == pytest.approx(49.9995)
        assert hist.p99 == pytest.approx(98.99901)

    def test_integer_observations_stay_exact(self):
        hist = Histogram("occupancy")
        for value in (0, 3, 3, 7, 12):
            hist.observe(value)
        assert hist.total == 25.0
        assert hist.mean == 5.0
        assert (hist.p50, hist.quantile(1.0)) == (3.0, 12.0)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=80),
           q=st.floats(0.0, 1.0))
    def test_quantiles_are_exact_to_half_a_bin(self, values, q):
        """Rounding to the nearest bin is monotone, so every order
        statistic, and so every interpolated quantile, moves by at most
        half a bin from ``np.quantile`` over the raw values."""
        hist = Histogram("h")
        hist.observe_many(values)
        exact = float(np.quantile(values, q))
        assert abs(hist.quantile(q) - exact) <= \
            RESOLUTION / 2 + 1e-12 * max(1.0, abs(exact))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_raise(self, value):
        hist = Histogram("h")
        hist.observe(1.0)
        with pytest.raises(ValueError, match="finite"):
            hist.observe(value)
        with pytest.raises(ValueError, match="finite"):
            hist.observe_many([2.0, value])
        # Nothing of a refused call is observed.
        assert (hist.count, hist.max) == (1, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(chunks=st.lists(st.tuples(st.booleans(), st.lists(
               st.floats(allow_nan=False, allow_infinity=False,
                         min_value=-1e300, max_value=1e300)
               | st.integers(-5000, 5000).map(lambda n: n * 5e-4)
               | st.sampled_from([0.0, -0.0, 1.5, 0.0005, -0.0025]),
               max_size=25)),
               max_size=6))
    def test_observe_many_equals_a_loop_of_observe(self, chunks):
        """Chunks fed whole or one by one, with negative values, signed
        zeros and values on or beside half-bin ties (``n * 5e-4``; at a
        tie ``round`` and ``np.rint`` both pick the even bin): the same
        bins, extremes and byte-equal snapshot as observing every value
        in a loop."""
        batched, looped = Histogram("b"), Histogram("l")
        for whole, values in chunks:
            if whole:
                batched.observe_many(values)
            else:
                for value in values:
                    batched.observe(value)
            for value in values:
                looped.observe(value)
        assert repr(batched.snapshot()) == repr(looped.snapshot())
        assert repr((sorted(batched._bins.items()), batched.min,
                     batched.max)) == \
            repr((sorted(looped._bins.items()), looped.min, looped.max))


class TestRegistry:
    def test_get_or_create_shares_instruments(self):
        registry = MetricsRegistry()
        a = registry.counter("x.hits")
        b = registry.counter("x.hits")
        assert a is b
        assert len(registry) == 1

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_register_dedups_names(self):
        registry = MetricsRegistry()
        first = registry.register(Counter("c.windows"))
        second = registry.register(Counter("c.windows"))
        third = registry.register(Counter("c.windows"))
        assert first.name == "c.windows"
        assert second.name == "c.windows#2"
        assert third.name == "c.windows#3"
        assert registry.get("c.windows#2") is second

    def test_total_sums_prefix_across_dedup_suffixes(self):
        registry = MetricsRegistry()
        registry.register(Counter("c.hits")).inc(2)
        registry.register(Counter("c.hits")).inc(3)
        registry.histogram("c.hits_ms").observe(1.0)  # ignored by total
        assert registry.total("c.hits") == 5

    def test_names_prefix_filter(self):
        registry = MetricsRegistry()
        registry.counter("a.one")
        registry.counter("a.two")
        registry.counter("b.one")
        assert registry.names("a.") == ["a.one", "a.two"]
        assert "a.one" in registry

    def test_report_includes_quantiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h.latency")
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        registry.counter("h.count").inc(3)
        report = registry.report()
        assert "h.latency" in report
        assert "p50" in report and "p90" in report and "p99" in report
        assert "h.count" in report

    def test_export_writes_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("e.hits").inc(4)
        registry.gauge_fn("e.depth", lambda: 2)
        path = export_json(registry.snapshot() | {"experiment": "test"},
                           tmp_path / "OBS_test.json")
        payload = json.loads(path.read_text())
        assert payload["experiment"] == "test"
        assert payload["e.hits"]["value"] == 4
        assert payload["e.depth"]["value"] == 2
        assert payload["header"]["cpu_count"] >= 1


class TestModuleApi:
    def test_disabled_instruments_float_free(self):
        assert not obs.enabled()
        counter = obs.counter("free.counter")
        counter.inc()
        assert counter.value == 1
        assert obs.get_registry() is None

    def test_enabled_instruments_register(self, enabled_obs):
        registry, _tracer = enabled_obs
        counter = obs.counter("wired.counter")
        counter.inc(2)
        assert registry.get("wired.counter") is counter
        # A second instance of the same call site dedups, not aliases.
        other = obs.counter("wired.counter")
        assert other is not counter
        assert other.name == "wired.counter#2"

    def test_enable_is_idempotent(self, enabled_obs):
        registry, tracer = enabled_obs
        again_registry, again_tracer = obs.enable()
        assert again_registry is registry
        assert again_tracer is tracer

    def test_span_is_noop_when_disabled(self):
        assert not obs.enabled()
        with obs.span("anything", key="value") as span:
            assert span is None
