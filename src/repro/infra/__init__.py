"""``repro.infra`` — small, deterministic reliability primitives.

* :class:`RetryPolicy` / :class:`RetrySchedule` — one exponential
  backoff-with-deadline schedule shared by every retrying layer (the
  MP ARQ sender and the fleet supervisor);
* :class:`CircuitBreaker` — trip/fast-fail/half-open protection, one
  per fleet shard, so a repeat offender is quarantined instead of
  retried forever.

The breaker wires into :mod:`repro.obs` with the usual
zero-overhead-when-disabled pattern.  None of it touches a clock —
callers pass the time in.
"""

from .breaker import BreakerState, BreakerTransition, CircuitBreaker
from .retry import RetryPolicy, RetrySchedule

__all__ = [
    "BreakerState",
    "BreakerTransition",
    "CircuitBreaker",
    "RetryPolicy",
    "RetrySchedule",
]
