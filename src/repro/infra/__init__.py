"""``repro.infra`` — production-hardening primitives for the MDN stack.

Three small, deterministic, sim-time-driven building blocks that the
core layers (ARQ, spectrum agility, failover, controller) delegate to
instead of hand-rolling their own copies:

* :class:`RetryPolicy` / :class:`RetrySchedule` — one exponential
  backoff-with-deadline schedule shared by every retransmitting layer;
* :class:`CircuitBreaker` — trip/fast-fail/half-open protection around
  each per-Pi ARQ link, feeding failover verdicts faster than frame
  deadlines can;
* :class:`TokenBucket` — the one rate limiter: admission control that
  turns an ARQ send flood into counted shedding instead of unbounded
  queue growth, and the switch meter that polices a metered flow entry.

The breaker wires into :mod:`repro.obs` with the usual
zero-overhead-when-disabled pattern; a bucket's callers count what it
sheds.  None of it touches a wall clock — callers pass sim time in.
"""

from .admission import TokenBucket
from .breaker import BreakerState, BreakerTransition, CircuitBreaker
from .retry import RetryPolicy, RetrySchedule

__all__ = [
    "BreakerState",
    "BreakerTransition",
    "CircuitBreaker",
    "RetryPolicy",
    "RetrySchedule",
    "TokenBucket",
]
