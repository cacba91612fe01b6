"""``repro.infra`` — the shared retry policy.

:class:`RetryPolicy` / :class:`RetrySchedule` — one exponential
backoff-with-deadline schedule shared by every retrying layer (the MP
ARQ sender and the fleet supervisor).  It never touches a clock —
callers pass the time in.
"""

from .retry import RetryPolicy, RetrySchedule

__all__ = [
    "RetryPolicy",
    "RetrySchedule",
]
