"""Fleet dispatch: admission-controlled, breaker-guarded shard fan-out.

The process pool is the fleet's one shared, exhaustible resource, and
it fails in the same two shapes the PR 6 infra layer was built for:

* **storms** — a driver that dumps 1000 shard submissions into the pool
  at once gives the OS a thundering herd of workers; a
  :class:`~repro.infra.TokenBucket` paces admissions so submissions
  enter at a bounded rate (bursts up to ``burst`` pass untouched);
* **poison** — a shard whose spec crashes every worker it touches
  would otherwise burn ``attempts x remaining_shards`` doomed
  executions; a :class:`~repro.infra.CircuitBreaker` over the pool
  trips after consecutive failures and fast-fails the rest of the run
  into counted :class:`ShardFailure` records instead.

Failures never take down the fleet run: the driver merges whatever
succeeded and reports the rest, the same counted-degradation contract
as ``detections == dispatched + shed``.

Clocks and sleeps are injectable so tests drive pacing deterministically
without real waiting; results are unaffected either way — pacing moves
*when* a shard runs, never what it computes.
"""

from __future__ import annotations

import time as _time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Callable

from .. import obs
from ..infra import BreakerState, CircuitBreaker, TokenBucket
from .specs import ShardSpec, ensure_picklable


@dataclass
class ShardFailure:
    """One shard that never produced a report."""

    shard_id: int
    error: str
    attempts: int
    #: True when the breaker fast-failed the shard without running it.
    fast_failed: bool = False
    #: True when the supervisor gave up on a repeat offender (its
    #: per-shard breaker tripped) rather than exhausting attempts.
    quarantined: bool = False


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a pool down even if its workers are wedged.

    ``shutdown(wait=True)`` on a pool with a hung worker blocks
    forever, so the workers are terminated first; joining the corpses
    afterwards is prompt.  Reaches into ``_processes`` — a CPython
    implementation detail, but the only eviction mechanism
    ``ProcessPoolExecutor`` has, and guarded so a future stdlib rename
    degrades to a plain (possibly blocking) shutdown rather than a
    crash.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            if process.is_alive():
                process.terminate()
        except Exception:  # pragma: no cover - best-effort teardown
            pass
    pool.shutdown(wait=True, cancel_futures=True)


class FleetDispatcher:
    """Runs shard specs through a worker pool under infra guardrails.

    Parameters
    ----------
    admission:
        Optional token bucket pacing shard submission (rate in
        shards/second against the dispatch clock).  ``None`` admits
        everything immediately.
    breaker:
        Optional circuit breaker over the pool.  ``None`` builds one
        with ``failure_threshold=3``; pass an explicit breaker to tune,
        or share one across fleet runs.
    max_attempts:
        Executions allowed per shard before it is recorded as failed
        (transient worker deaths get a retry; poison does not loop).
    clock, sleep:
        Injectable time source / wait primitive for the pacing loop.
    """

    def __init__(
        self,
        admission: TokenBucket | None = None,
        breaker: CircuitBreaker | None = None,
        max_attempts: int = 2,
        clock: Callable[[], float] = _time.monotonic,
        sleep: Callable[[float], None] = _time.sleep,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.admission = admission
        self.breaker = breaker or CircuitBreaker(
            "fleet.pool", failure_threshold=3, recovery_timeout=1.0
        )
        self.max_attempts = max_attempts
        self._clock = clock
        self._sleep = sleep
        self._m_dispatched = obs.counter("fleet.shards_dispatched")
        self._m_retried = obs.counter("fleet.shards_retried")
        self._m_failed = obs.counter("fleet.shards_failed")
        self._m_timed_out = obs.counter("dispatch.shard_timeouts")
        self._m_rebuilds = obs.counter("dispatch.pool_rebuilds")
        self._m_casualties = obs.counter("dispatch.broken_pool_casualties")

    # ------------------------------------------------------------------

    def _admit(self) -> None:
        """Block (via the injectable sleep) until the bucket admits."""
        if self.admission is None:
            return
        while not self.admission.admit(self._clock()):
            shortfall = 1.0 - self.admission.peek(self._clock())
            self._sleep(max(shortfall / self.admission.rate, 1e-4))

    def run(
        self,
        shards: tuple[ShardSpec, ...],
        runner: Callable,
        workers: int,
        shard_timeout: float | None = None,
    ) -> tuple[list, list[ShardFailure]]:
        """Execute ``runner(shard)`` for every shard on a process pool.

        Returns ``(reports, failures)`` with reports sorted by
        ``shard_id`` — completion order is scheduling noise and must
        never leak into merge order.

        Two process-level failure shapes are survived, not propagated:

        * **a killed worker** (``os._exit``, OOM-kill, segfault) breaks
          the whole ``ProcessPoolExecutor`` and dooms every shard in
          flight, so the break names no culprit.  A break with one
          shard in flight is charged to that shard as a failed
          *attempt* (retried under the usual budget).  A break that
          dooms several shards refunds all of them and re-queues them
          as *suspects*: a suspect waits for an empty pool and runs
          alone, so an innocent co-runner of a poison shard never
          spends its budget.  Either way the dispatcher records one
          breaker failure per break event — not one per casualty, or a
          single break would trip a 3-threshold breaker on its own —
          and rebuilds the pool once per break
          (``dispatch.pool_rebuilds``);
        * **a hung worker** would otherwise block ``wait`` forever;
          with ``shard_timeout`` set, a shard past its deadline is
          counted (``dispatch.shard_timeouts``), its worker killed
          (pool rebuild — a wedged process cannot be evicted any other
          way) and the shard retried/failed.  Innocent shards in
          flight during the kill are re-queued with their attempt
          refunded: they were casualties, not offenders.

        In-flight submissions are capped at ``workers`` so a break can
        only ever take down work that was actually running.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError(
                f"shard_timeout must be positive, got {shard_timeout}"
            )
        for shard in shards:
            ensure_picklable(shard, f"ShardSpec(shard_id={shard.shard_id})")
        reports: list = []
        failures: list[ShardFailure] = []
        attempts: dict[int, int] = {shard.shard_id: 0 for shard in shards}
        by_id = {shard.shard_id: shard for shard in shards}
        queue = list(shards)
        pending: dict = {}  # future -> (shard, deadline | None)
        #: Shards doomed together by one break; each now runs alone.
        suspects: set[int] = set()

        def _fail(shard: ShardSpec, error: str, fast: bool = False) -> None:
            failures.append(ShardFailure(
                shard_id=shard.shard_id, error=error,
                attempts=attempts[shard.shard_id], fast_failed=fast,
            ))
            self._m_failed.inc()

        def _retry_or_fail(shard: ShardSpec, error: str) -> None:
            if attempts[shard.shard_id] < self.max_attempts:
                self._m_retried.inc()
                queue.append(by_id[shard.shard_id])
            else:
                _fail(shard, error)

        def _refund(shard: ShardSpec) -> None:
            self._m_casualties.inc()
            attempts[shard.shard_id] -= 1
            queue.append(by_id[shard.shard_id])

        def _must_wait() -> bool:
            """A suspect starts only on an empty pool, and nothing
            starts beside it."""
            if not (suspects and pending):
                return False
            return queue[0].shard_id in suspects or any(
                shard.shard_id in suspects for shard, _d in pending.values()
            )

        def _drain_casualties_and_rebuild() -> None:
            """Every still-pending future died with the pool; refund
            the innocents' attempts and put them back in line, then
            stand up a fresh pool."""
            nonlocal pool
            for shard, _deadline in pending.values():
                _refund(shard)
            pending.clear()
            _terminate_pool(pool)
            pool = ProcessPoolExecutor(max_workers=workers)
            self._m_rebuilds.inc()

        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            while queue or pending:
                # Keep at most `workers` in flight: pool breaks can
                # then only hit work that was actually running.
                while queue and len(pending) < workers and not _must_wait():
                    shard = queue.pop(0)
                    if not self.breaker.allow(self._clock()):
                        _fail(shard,
                              f"breaker {self.breaker.state} "
                              f"(pool judged unhealthy)", fast=True)
                        continue
                    self._admit()
                    attempts[shard.shard_id] += 1
                    self._m_dispatched.inc()
                    deadline = (self._clock() + shard_timeout
                                if shard_timeout is not None else None)
                    try:
                        pending[pool.submit(runner, shard)] = (shard,
                                                               deadline)
                    except BrokenExecutor:
                        # The pool died before this submit; refund and
                        # recover like any other break.
                        attempts[shard.shard_id] -= 1
                        queue.append(by_id[shard.shard_id])
                        self.breaker.record_failure(self._clock())
                        _drain_casualties_and_rebuild()
                        break
                if not pending:
                    if queue:
                        continue
                    break
                wait_timeout = None
                if shard_timeout is not None:
                    soonest = min(deadline
                                  for (_s, deadline) in pending.values())
                    wait_timeout = max(soonest - self._clock(), 0.0)
                done, _ = wait(pending, timeout=wait_timeout,
                               return_when=FIRST_COMPLETED)
                broken: list[tuple[ShardSpec, str]] = []
                for future in done:
                    shard, _deadline = pending.pop(future)
                    error = future.exception()
                    if error is None:
                        self.breaker.record_success(self._clock())
                        reports.append(future.result())
                        suspects.discard(shard.shard_id)
                    elif isinstance(error, BrokenExecutor):
                        broken.append((shard, repr(error)))
                    else:
                        self.breaker.record_failure(self._clock())
                        _retry_or_fail(shard, repr(error))
                if broken:
                    # One breaker failure per break *event*: the break
                    # is one fault, however many futures it doomed.
                    self.breaker.record_failure(self._clock())
                    if len(broken) == 1 and not pending:
                        # Alone in flight: the break is this shard's.
                        _retry_or_fail(*broken[0])
                    else:
                        suspects.update(shard.shard_id for shard, _e in broken)
                        suspects.update(shard.shard_id
                                        for shard, _d in pending.values())
                        for shard, _error in broken:
                            _refund(shard)
                    _drain_casualties_and_rebuild()
                    continue
                if shard_timeout is not None and pending:
                    now = self._clock()
                    expired = [
                        (future, shard)
                        for future, (shard, deadline) in pending.items()
                        if deadline is not None and now >= deadline
                        and not future.done()
                    ]
                    if expired:
                        for future, shard in expired:
                            pending.pop(future)
                            self._m_timed_out.inc()
                            self.breaker.record_failure(now)
                            _retry_or_fail(
                                shard,
                                f"shard exceeded {shard_timeout:.3f} s "
                                f"timeout (worker killed)",
                            )
                        _drain_casualties_and_rebuild()
        finally:
            _terminate_pool(pool)
        # Retries and rebuilds scramble completion order worse than the
        # plain pool does; re-sort so scheduling noise never leaks out.
        # (Stub runners in tests may return bare values without a
        # shard_id — leave those in completion order.)
        reports.sort(key=lambda report: getattr(report, "shard_id", 0))
        failures.sort(key=lambda failure: failure.shard_id)
        return reports, failures

    def run_serial(
        self,
        shards: tuple[ShardSpec, ...],
        runner: Callable,
    ) -> tuple[list, list[ShardFailure]]:
        """The in-process reference path, under the same guardrails.

        No pool, no pickling requirement — but the breaker and retry
        accounting behave identically, so the serial backend exercises
        the exact failure semantics the parallel one has.
        """
        reports: list = []
        failures: list[ShardFailure] = []
        for shard in shards:
            attempts = 0
            while True:
                if not self.breaker.allow(self._clock()):
                    failures.append(ShardFailure(
                        shard_id=shard.shard_id,
                        error=f"breaker {self.breaker.state} "
                              f"(pool judged unhealthy)",
                        attempts=attempts,
                        fast_failed=True,
                    ))
                    self._m_failed.inc()
                    break
                self._admit()
                attempts += 1
                self._m_dispatched.inc()
                try:
                    report = runner(shard)
                except Exception as error:
                    self.breaker.record_failure(self._clock())
                    if attempts < self.max_attempts:
                        self._m_retried.inc()
                        continue
                    failures.append(ShardFailure(
                        shard_id=shard.shard_id,
                        error=repr(error),
                        attempts=attempts,
                    ))
                    self._m_failed.inc()
                    break
                else:
                    self.breaker.record_success(self._clock())
                    reports.append(report)
                    break
        return reports, failures


__all__ = [
    "BreakerState",
    "FleetDispatcher",
    "ShardFailure",
]
