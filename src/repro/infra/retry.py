"""The one retry policy every retransmitting layer shares.

ChirpCast (arXiv:1508.07099) frames acoustic reliability as *policy* —
acknowledgement, redundancy, and giving up at the right time — rather
than per-call-site heroics.  Before this module each retransmitting
layer (the MP ARQ sender, the spectrum-agility prepare retry)
hand-rolled the same exponential-backoff-with-deadline loop, each
advancing its own ``timeout = min(timeout * backoff, cap)`` state.
:class:`RetryPolicy` is the single description of that schedule and
:class:`RetrySchedule` the single stateful walker over it, so a
retransmission timeline is computed one way everywhere — and is
reproducible, including the optional seeded jitter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with a cap, a hard deadline, and optional
    seeded jitter.

    The first retry waits ``initial_timeout``; each subsequent wait is
    multiplied by ``backoff`` up to ``max_timeout``.  No retry is ever
    scheduled at or past ``start + deadline`` — whatever is being
    retried goes stale (management traffic must not queue forever).
    With ``jitter`` > 0 each wait is shrunk by up to that fraction,
    drawn from a seeded stream so identical seeds produce identical
    schedules (the decorrelation knob for fleets of senders sharing a
    policy, without giving up reproducibility).
    """

    initial_timeout: float = 0.05
    backoff: float = 2.0
    max_timeout: float = 0.5
    deadline: float = 2.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.initial_timeout <= 0:
            raise ValueError("initial_timeout must be positive")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.max_timeout < self.initial_timeout:
            raise ValueError("max_timeout must be >= initial_timeout")
        if self.deadline <= 0:
            raise ValueError("deadline must be positive")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def schedule(self, start: float, seed: int | None = None) -> RetrySchedule:
        """A fresh stateful walker over this policy, anchored at
        ``start``.  ``seed`` feeds the jitter stream (ignored when
        ``jitter`` is 0); identical seeds yield identical schedules."""
        return RetrySchedule(self, start, seed=seed)

    def delay(self, attempt: int) -> float:
        """The un-jittered wait before retry number ``attempt`` (0 is
        the first retry) — the closed form the schedule walks."""
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        return min(self.initial_timeout * self.backoff ** attempt,
                   self.max_timeout)


class RetrySchedule:
    """One delivery attempt's walk along a :class:`RetryPolicy`.

    ``next_retry(now)`` returns the absolute time of the next
    retransmission, or ``None`` once that retry (plus the caller's
    ``margin`` — e.g. the attempt's own duration, which must also fit)
    would not complete strictly before the deadline.
    """

    __slots__ = ("policy", "start", "deadline", "retries_planned",
                 "_timeout", "_rng")

    def __init__(self, policy: RetryPolicy, start: float,
                 seed: int | None = None) -> None:
        self.policy = policy
        self.start = start
        self.deadline = start + policy.deadline
        self.retries_planned = 0
        self._timeout = policy.initial_timeout
        self._rng = (random.Random(0 if seed is None else seed)
                     if policy.jitter > 0 else None)

    def next_retry(self, now: float, margin: float = 0.0) -> float | None:
        """Absolute time of the next retry after ``now``, or ``None``
        when the deadline leaves no room for another attempt (the
        caller should then arrange expiry at :attr:`deadline`)."""
        delay = self._timeout
        self._timeout = min(self._timeout * self.policy.backoff,
                            self.policy.max_timeout)
        if self._rng is not None:
            delay *= 1.0 - self.policy.jitter * self._rng.random()
        retry_at = now + delay
        if not retry_at + margin < self.deadline:
            return None
        self.retries_planned += 1
        return retry_at
