"""Unit tests for the tone-count telemetry engine."""

import pytest

from repro.audio.detector import DetectionEvent
from repro.core import ToneCounter


def event(frequency: float, time: float) -> DetectionEvent:
    return DetectionEvent(frequency, frequency, 60.0, time)


class TestIntervals:
    def test_counts_within_interval(self):
        counter = ToneCounter(interval=1.0)
        for t in (0.1, 0.3, 0.5):
            counter.observe(event(500, t))
        counter.observe(event(600, 0.7))
        counter.flush(2.0)
        assert len(counter.closed) >= 1
        first = counter.closed[0]
        assert first.counts == {500: 3, 600: 1}
        assert first.total == 4
        assert first.distinct == 2

    def test_interval_boundaries_aligned(self):
        counter = ToneCounter(interval=1.0)
        counter.observe(event(500, 0.5))
        counter.observe(event(500, 1.5))
        counter.flush(3.0)
        starts = [interval.start for interval in counter.closed]
        assert starts == [0.0, 1.0]
        assert all(i.end == i.start + 1.0 for i in counter.closed)

    def test_flush_skips_empty_intervals(self):
        # Skip-ahead semantics: silence never materializes empty
        # IntervalCounts; only the interval that counted something
        # closes, no matter how far flush jumps.
        counter = ToneCounter(interval=1.0)
        counter.observe(event(500, 0.5))
        counter.flush(4.0)
        assert len(counter.closed) == 1
        assert counter.closed[0].start == 0.0
        assert counter.closed[0].total == 1

    def test_sparse_stream_jumps_gap_in_one_step(self):
        counter = ToneCounter(interval=1.0)
        counter.observe(event(500, 0.5))
        counter.observe(event(500, 3600.5))  # an hour of silence between
        counter.flush(3602.0)
        assert [i.start for i in counter.closed] == [0.0, 3600.0]

    def test_flush_close_partial_counts_tail(self):
        # Without close_partial, onsets in the final partial interval
        # were lost (the tail-loss bug); with it they close as
        # [start, now).
        counter = ToneCounter(interval=1.0)
        counter.observe(event(500, 0.5))
        counter.observe(event(500, 2.3))
        counter.flush(2.6, close_partial=True)
        assert [(i.start, i.end) for i in counter.closed] == \
            [(0.0, 1.0), (2.0, 2.6)]
        assert counter.closed[-1].counts == {500: 1}

    def test_close_partial_then_new_observation_starts_fresh(self):
        counter = ToneCounter(interval=1.0)
        counter.observe(event(500, 0.2))
        counter.flush(0.5, close_partial=True)
        counter.observe(event(600, 3.4))
        counter.flush(4.0)
        assert counter.closed[-1].start == 3.0
        assert counter.closed[-1].counts == {600: 1}

    def test_close_partial_noop_when_tail_is_empty(self):
        counter = ToneCounter(interval=1.0)
        counter.observe(event(500, 0.5))
        counter.flush(2.0, close_partial=True)
        assert len(counter.closed) == 1

    def test_flush_before_any_event_is_noop(self):
        counter = ToneCounter()
        counter.flush(10.0)
        assert counter.closed == []
        counter.flush(10.0, close_partial=True)
        assert counter.closed == []

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            ToneCounter(interval=0)


class TestRules:
    def test_distinct_over_threshold(self):
        counter = ToneCounter(interval=1.0)
        for index in range(7):
            counter.observe(event(500 + 20 * index, 0.1 + index * 0.1))
        counter.flush(2.0)
        scans = counter.intervals_with_distinct_over(5)
        assert len(scans) == 1
        assert scans[0].distinct == 7

    def test_count_history(self):
        counter = ToneCounter(interval=1.0)
        counter.observe(event(500, 0.5))
        counter.observe(event(500, 1.2))
        counter.observe(event(500, 1.4))
        counter.flush(3.0)
        history = counter.count_history(500)
        assert history.values == [1, 2]

    def test_totals_series(self):
        counter = ToneCounter(interval=1.0)
        counter.observe(event(500, 0.5))
        counter.observe(event(600, 0.6))
        counter.flush(2.0)
        assert counter.totals.values == [2]
