"""Tests for token-bucket admission control."""

import pytest

from repro.infra import TokenBucket


class TestTokenBucket:
    def test_starts_full_and_bursts(self):
        bucket = TokenBucket(rate=10.0, burst=5.0)
        assert all(bucket.admit(0.0) for _ in range(5))
        assert not bucket.admit(0.0)
        assert bucket.admitted == 5
        assert bucket.shed == 1

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate=10.0, burst=5.0)
        for _ in range(5):
            bucket.admit(0.0)
        assert not bucket.admit(0.0)
        # 0.2 s at 10/s = 2 tokens back.
        assert bucket.admit(0.2)
        assert bucket.admit(0.2)
        assert not bucket.admit(0.2)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=3.0)
        assert bucket.peek(1e6) == 3.0

    def test_sustained_overload_sheds_the_excess(self):
        """Over a long storm the admitted count converges on
        burst + rate x duration; everything else is counted shed."""
        bucket = TokenBucket(rate=20.0, burst=25.0)
        sends, duration = 300, 1.5
        for index in range(sends):
            bucket.admit(index * duration / sends)
        assert bucket.admitted + bucket.shed == sends
        assert bucket.admitted <= 25.0 + 20.0 * duration
        assert bucket.admitted >= 25.0 + 20.0 * duration - 2

    def test_peek_spends_nothing(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        assert bucket.peek(0.0) == 2.0
        assert bucket.peek(0.0) == 2.0
        assert bucket.admitted == 0

    def test_time_never_runs_backwards(self):
        """An out-of-order probe must not mint tokens retroactively."""
        bucket = TokenBucket(rate=10.0, burst=1.0)
        assert bucket.admit(1.0)
        assert not bucket.admit(0.5)
        assert bucket.peek(1.05) == pytest.approx(0.5)

    @pytest.mark.parametrize("kwargs", [
        {"rate": 0.0, "burst": 5.0},
        {"rate": -1.0, "burst": 5.0},
        {"rate": 1.0, "burst": 0.5},
    ])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TokenBucket(**kwargs)
