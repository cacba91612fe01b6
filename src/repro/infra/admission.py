"""Token-bucket admission control.

One bucket serves every rate limit in the stack.  The SDN
teleorchestra measurements (arXiv:1808.09399) show control-loop delay
budgets only hold when admission control bounds what enters the loop:
in front of the per-Pi ARQ send queue a bucket turns a send flood into
*counted shedding* (``arq.mp_shed``) instead of unbounded ``_pending``
growth.

Lazy refill against caller-supplied sim time keeps the bucket exact and
deterministic: tokens accrue continuously at ``rate`` up to ``burst``,
and each :meth:`admit` call settles the elapsed interval before
deciding.  Time never runs backwards: an out-of-order probe mints no
tokens.
"""

from __future__ import annotations


class TokenBucket:
    """A deterministic token bucket (``rate`` tokens/s, ``burst`` cap).

    ``admit(now)`` spends one token and returns True, or returns False
    and counts a shed.  The bucket starts full, so short bursts up to
    ``burst`` pass untouched; only sustained overload sheds.
    """

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = burst
        self._tokens = float(burst)
        self.admitted = 0
        self.shed = 0
        self._last_refill = 0.0

    def admit(self, now: float) -> bool:
        """Spend one token at sim-time ``now`` if available."""
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.admitted += 1
            return True
        self.shed += 1
        return False

    def _refill(self, now: float) -> None:
        elapsed = now - self._last_refill
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._last_refill = now

    def peek(self, now: float) -> float:
        """Current token balance at ``now`` (refills, spends nothing)."""
        self._refill(now)
        return self._tokens
