"""Circuit breaker: stop retrying a target that keeps failing.

The fleet supervisor gives each shard one breaker.  It is the standard
three-state remedy: trip after N consecutive failures, fast-fail
everything while OPEN (callers get an immediate verdict instead of
another doomed attempt), and probe again after a cooldown through the
HALF_OPEN state.  Every state change is kept in ``transitions``.

All timing is caller-supplied simulation time; the breaker itself
never touches a clock, so it is reusable against any time source and
fully deterministic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .. import obs
from .retry import RetryPolicy, RetrySchedule


class BreakerState(enum.Enum):
    """The classic three-state circuit-breaker machine."""

    CLOSED = "closed"          # traffic flows; failures are counted
    OPEN = "open"              # fast-fail everything until cooldown
    HALF_OPEN = "half_open"    # limited probes decide recovery

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return self.value


#: Numeric encoding for the obs gauge (reports render floats).
_STATE_CODE = {BreakerState.CLOSED: 0.0,
               BreakerState.HALF_OPEN: 1.0,
               BreakerState.OPEN: 2.0}


@dataclass(frozen=True)
class BreakerTransition:
    """One state change, as kept in ``CircuitBreaker.transitions``."""

    name: str
    time: float
    previous: BreakerState
    state: BreakerState
    consecutive_failures: int


class CircuitBreaker:
    """Trip-fast/fail-fast wrapper around an unreliable send path.

    The caller asks :meth:`allow` before each attempt and reports the
    outcome with :meth:`record_success` / :meth:`record_failure`:

    * CLOSED — attempts are allowed; ``failure_threshold`` consecutive
      failures trip the breaker OPEN.
    * OPEN — :meth:`allow` fast-fails (and counts it) until the current
      cooldown has elapsed since the trip, then the breaker moves to
      HALF_OPEN.
    * HALF_OPEN — up to ``half_open_probes`` attempts are let through;
      the first success re-CLOSEs, the first failure re-OPENs (and
      restarts the cooldown).

    Cooldowns walk a :class:`RetryPolicy` (``recovery_policy``): the
    first trip waits ``recovery_timeout``, each consecutive re-trip
    backs off exponentially up to 8× that, and a recovery resets the
    schedule — the re-probe cadence against a still-dead link is the
    same unified policy everything else retries under.

    A success in any state resets the consecutive-failure count.
    """

    def __init__(self, name: str = "link",
                 failure_threshold: int = 3,
                 recovery_timeout: float = 1.0,
                 half_open_probes: int = 1,
                 recovery_policy: RetryPolicy | None = None) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if recovery_timeout <= 0:
            raise ValueError("recovery_timeout must be positive")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self.name = name
        self.failure_threshold = failure_threshold
        self.recovery_timeout = recovery_timeout
        self.recovery_policy = recovery_policy or RetryPolicy(
            initial_timeout=recovery_timeout,
            backoff=2.0,
            max_timeout=8 * recovery_timeout,
            deadline=math.inf,
        )
        self._recovery: RetrySchedule | None = None
        self._reopen_at = math.inf
        self.half_open_probes = half_open_probes
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.fast_fails = 0
        self.opened_at: float | None = None
        self.transitions: list[BreakerTransition] = []
        self._probes_in_flight = 0
        self._m_state = obs.gauge(f"breaker.{name}.state")
        self._m_trips = obs.counter(f"breaker.{name}.trips")
        self._m_fast_fails = obs.counter(f"breaker.{name}.fast_fails")

    # ------------------------------------------------------------------
    # Decision points
    # ------------------------------------------------------------------

    def allow(self, now: float) -> bool:
        """Whether an attempt may proceed at time ``now``.

        While OPEN this is the cooldown check; a denied attempt is
        counted as a fast-fail (the saved attempt is the whole point of
        the breaker, so the count is the saving made visible).
        """
        if self.state is BreakerState.OPEN:
            if now >= self._reopen_at:
                self._move(BreakerState.HALF_OPEN, now)
            else:
                self.fast_fails += 1
                self._m_fast_fails.inc()
                return False
        if self.state is BreakerState.HALF_OPEN:
            if self._probes_in_flight >= self.half_open_probes:
                self.fast_fails += 1
                self._m_fast_fails.inc()
                return False
            self._probes_in_flight += 1
        return True

    def record_success(self, now: float) -> None:
        """An attempt completed — clear failure history, re-close."""
        self.consecutive_failures = 0
        self._recovery = None
        if self.state is not BreakerState.CLOSED:
            self._move(BreakerState.CLOSED, now)

    def record_failure(self, now: float) -> None:
        """An attempt failed."""
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._move(BreakerState.OPEN, now)
        elif (self.state is BreakerState.CLOSED
                and self.consecutive_failures >= self.failure_threshold):
            self._move(BreakerState.OPEN, now)

    # ------------------------------------------------------------------
    # State plumbing
    # ------------------------------------------------------------------

    def _move(self, state: BreakerState, now: float) -> None:
        previous = self.state
        self.state = state
        if state is BreakerState.OPEN:
            self.opened_at = now
            if self._recovery is None:
                self._recovery = self.recovery_policy.schedule(now)
            self._reopen_at = self._recovery.next_retry(now)
            self._m_trips.inc()
        if state is not BreakerState.HALF_OPEN:
            self._probes_in_flight = 0
        self._m_state.set(_STATE_CODE[state])
        self.transitions.append(BreakerTransition(
            name=self.name, time=now, previous=previous, state=state,
            consecutive_failures=self.consecutive_failures,
        ))
