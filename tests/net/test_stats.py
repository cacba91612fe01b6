"""Unit tests for the time-series and counter helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import Counter, TimeSeries


class TestTimeSeries:
    def test_record_and_len(self):
        series = TimeSeries("x")
        series.record(0.0, 1.0)
        series.record(1.0, 2.0)
        assert len(series) == 2

    def test_rejects_decreasing_times(self):
        series = TimeSeries()
        series.record(2.0, 1.0)
        with pytest.raises(ValueError):
            series.record(1.0, 5.0)

    def test_equal_times_allowed(self):
        series = TimeSeries()
        series.record(1.0, 1.0)
        series.record(1.0, 2.0)
        assert series.values == [1.0, 2.0]

    def test_value_at(self):
        series = TimeSeries()
        series.record(1.0, 10.0)
        series.record(2.0, 20.0)
        assert series.value_at(0.5) == 0.0
        assert series.value_at(1.0) == 10.0
        assert series.value_at(1.5) == 10.0
        assert series.value_at(3.0) == 20.0

    def test_min_max_final(self):
        series = TimeSeries()
        for t, v in [(0, 3.0), (1, -1.0), (2, 7.0)]:
            series.record(t, v)
        assert series.max() == 7.0
        assert series.min() == -1.0
        assert series.final() == 7.0

    def test_empty_stats(self):
        series = TimeSeries()
        assert series.max() == 0.0
        assert series.final() == 0.0

    def test_window(self):
        series = TimeSeries("w")
        for t in range(5):
            series.record(float(t), float(t))
        sub = series.window(1.0, 3.0)
        assert sub.times == [1.0, 2.0]

    @given(
        times=st.lists(
            st.floats(0.0, 100.0, allow_nan=False), max_size=60
        ),
        start=st.floats(-10.0, 110.0, allow_nan=False),
        length=st.floats(0.0, 120.0, allow_nan=False),
    )
    def test_window_bisect_matches_linear_scan(self, times, start, length):
        """The bisected slice must select exactly what the old
        ``start <= time < end`` linear scan did, duplicates included."""
        series = TimeSeries("p")
        for index, time in enumerate(sorted(times)):
            series.record(time, float(index))
        end = start + length
        sub = series.window(start, end)
        expected = [
            (time, value)
            for time, value in zip(series.times, series.values)
            if start <= time < end
        ]
        assert list(zip(sub.times, sub.values)) == expected
        assert sub.name == series.name


class TestCounter:
    def test_add_and_increment(self):
        counter = Counter("c")
        counter.add(5.0)
        counter.increment()
        assert counter.total == 6.0

    def test_rejects_negative(self):
        counter = Counter()
        with pytest.raises(ValueError):
            counter.add(-1.0)
