"""``run_fleet`` — the fleet's one execution loop, self-healing and exact.

:func:`run_fleet` cuts a :class:`~repro.fleet.specs.FleetSpec` into
contiguous shards and drives every attempt at every shard through a
single event loop, on either backend:

* ``backend="serial"`` — each attempt runs to completion in this
  interpreter the moment it is submitted: the obviously-correct
  reference.  Nothing ever races, so hedges and deadlines never fire,
  and a hard crash is downgraded to the exception-shaped one (the
  driver's own interpreter is not disposable);
* ``backend="process"`` — a ``ProcessPoolExecutor`` with at most
  ``workers`` attempts in flight, so a pool break can only ever doom
  work that was actually running.

The loop survives crashing, hanging, poisoning and duplicating
workers (see :mod:`repro.faults.process`) with the same recovery on
both backends:

* **heartbeat/deadline straggler detection** — every in-flight attempt
  carries its submission time; one past ``hedge_after_s`` gets a
  **hedged re-execution** (a second attempt racing the slow one,
  first-result-wins, deduped by shard id — the loser is counted
  ``hedges_wasted``, never merged), and one past ``shard_deadline_s``
  is abandoned: the pool is killed and rebuilt (checkpoints make the
  collateral cheap) and the shard retried;
* **pool breaks** — a killed worker (``os._exit``, OOM-kill, segfault)
  breaks the whole pool and dooms every attempt in it, so the break
  names no culprit.  A break that dooms one attempt charges that
  attempt a crash.  A break that dooms several charges none of them:
  each doomed shard becomes a *suspect* that re-runs alone, where a
  break is unambiguously its own.  Either way the pool is rebuilt once
  per break;
* **room-granular checkpointing** — given a ``checkpoint_dir``,
  workers spill every finished :class:`~repro.fleet.room.RoomReport`
  through the :class:`~repro.fleet.checkpoint.CheckpointStore`, so a
  retry of a shard that died 9 rooms into 10 simulates one room, not
  ten (``rooms_resumed`` counts the savings);
* **bounded retries** — failed attempts re-enter the queue along the
  :data:`RETRY_POLICY` schedule (the same unified policy ARQ
  retransmits under), capped by ``max_attempts``;
* **quarantine** — a shard that fails
  :attr:`SupervisorPolicy.quarantine_threshold` times is recorded as a
  quarantined :class:`ShardFailure` instead of burning the remaining
  attempt budget;
* **integrity validation** — a result is merged only if it is a
  well-formed :class:`ShardReport` for the right shard with exactly
  the right rooms; a poisoned result is a counted failure, never a
  corrupted fleet report.

The headline guarantee is **exact recovery**: rooms are deterministic
and the loop only ever re-executes, resumes, or discards them — so
under *any* injected schedule of crashes, hangs, poisons and
duplicates it recovers from, ``FleetReport.identity_signature()``
equals the fault-free serial reference bit-for-bit.  Recovery changes
wall-clock, never results.  XEXT17 sweeps exactly this contract.

All recovery accounting is wired through ``fleet.supervisor.*`` obs
instruments (zero-overhead-when-disabled as usual) and returned on
``FleetReport.supervisor`` as a :class:`SupervisorStats`.
"""

from __future__ import annotations

import time as _time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass

from .. import obs
from ..faults.process import ProcessFaultPlan, shard_fault_decision
from ..infra import RetryPolicy
from .room import RoomReport
from .runner import FleetReport, ShardReport, build_fleet_report
from .specs import FleetSpec, ShardSpec
from .worker import ShardJob, run_shard_job

#: Hedges allowed per shard (each consumes an attempt).
MAX_HEDGES_PER_SHARD = 1

#: Backoff schedule for retry *delays* (not counts — counts are
#: ``max_attempts``).  Deadline generous: giving up is the attempt
#: budget's job.
RETRY_POLICY = RetryPolicy(initial_timeout=0.02, backoff=2.0,
                           max_timeout=0.25, deadline=600.0)


@dataclass(frozen=True)
class SupervisorPolicy:
    """The recovery knobs, all bounded, all explicit."""

    #: Total executions allowed per shard, hedges included.  Must
    #: exceed the fault plan's ``max_faulty_attempts`` for the
    #: guaranteed-progress bound to hold.
    max_attempts: int = 5
    #: Age (seconds) past which a sole in-flight attempt gets a hedged
    #: re-execution.  ``None`` disables hedging.
    hedge_after_s: float | None = None
    #: Hard per-attempt deadline: an attempt older than this is
    #: abandoned and its worker killed.  ``None`` disables.
    shard_deadline_s: float | None = None
    #: Failures that quarantine a shard.  They are always consecutive:
    #: a success resolves the shard.
    quarantine_threshold: int = 4

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.hedge_after_s is not None and self.hedge_after_s <= 0:
            raise ValueError(
                f"hedge_after_s must be positive, got {self.hedge_after_s}"
            )
        if self.shard_deadline_s is not None and self.shard_deadline_s <= 0:
            raise ValueError(
                f"shard_deadline_s must be positive, "
                f"got {self.shard_deadline_s}"
            )
        if self.quarantine_threshold < 1:
            raise ValueError(
                f"quarantine_threshold must be >= 1, "
                f"got {self.quarantine_threshold}"
            )


@dataclass
class SupervisorStats:
    """Recovery accounting for one run (execution detail — never part
    of the identity signature)."""

    backend: str = "process"
    workers: int = 1
    attempts_total: int = 0
    crashes_detected: int = 0
    stragglers_hedged: int = 0
    hedges_wasted: int = 0
    rooms_resumed: int = 0
    poisoned_reports: int = 0
    duplicates_injected: int = 0
    duplicates_dropped: int = 0
    late_results_dropped: int = 0
    retries_scheduled: int = 0
    deadline_kills: int = 0
    pool_rebuilds: int = 0
    shards_quarantined: int = 0
    shards_failed: int = 0


@dataclass
class ShardFailure:
    """One shard that never produced a report."""

    shard_id: int
    error: str
    attempts: int
    #: True when the shard hit the quarantine threshold (a repeat
    #: offender) rather than running out of its attempt budget.
    quarantined: bool = False


def validate_shard_report(report: object, shard: ShardSpec) -> str | None:
    """Why ``report`` must not be merged for ``shard`` — or ``None``
    if it is sound.  This is the poison gate: everything the driver
    is about to trust is checked against the spec it dispatched."""
    if not isinstance(report, ShardReport):
        return (f"expected ShardReport, got "
                f"{type(report).__name__} (poisoned result)")
    if report.shard_id != shard.shard_id:
        return (f"shard id mismatch: report says {report.shard_id}, "
                f"spec says {shard.shard_id}")
    want = [room.room_id for room in shard.rooms]
    got = [getattr(room, "room_id", None) for room in report.rooms]
    if got != want:
        return f"room set mismatch: report has {got}, spec wants {want}"
    if any(not isinstance(room, RoomReport) for room in report.rooms):
        return "report contains non-RoomReport rooms (poisoned result)"
    return None


def _terminate_pool(pool) -> None:
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


class _InlineExecutor:
    """The serial backend's pool: ``submit`` runs the job to completion
    in this interpreter and hands back a finished future, so one loop
    drives both backends."""

    def submit(self, fn, job) -> Future:
        future = Future()
        try:
            future.set_result(fn(job))
        except Exception as exc:  # a worker's death, as the pool reports it
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


class _Flight:
    """One in-flight execution attempt."""

    __slots__ = ("shard_id", "attempt", "hedge", "duplicate",
                 "submitted_at", "hedged")

    def __init__(self, shard_id: int, attempt: int, submitted_at: float,
                 hedge: bool = False, duplicate: bool = False) -> None:
        self.shard_id = shard_id
        self.attempt = attempt
        self.hedge = hedge
        self.duplicate = duplicate
        self.submitted_at = submitted_at
        #: This flight already triggered a hedge (never hedge twice).
        self.hedged = False


class _ShardState:
    """Loop-side bookkeeping for one shard."""

    __slots__ = ("spec", "attempts", "hedges", "report", "failure",
                 "schedule", "failures", "inflight", "ready_at",
                 "exhausted_error")

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.attempts = 0          # executions started (hedges included)
        self.hedges = 0
        self.report: ShardReport | None = None
        self.failure: ShardFailure | None = None
        self.schedule = None       # RetrySchedule, lazily created
        self.failures = 0          # failed attempts; quarantine is final
        self.inflight = 0
        self.ready_at: float | None = 0.0   # next submission time
        self.exhausted_error: str | None = None

    @property
    def resolved(self) -> bool:
        return self.report is not None or self.failure is not None


class _FleetLoop:
    """One run's shard states, executor and recovery decisions."""

    def __init__(self, shard_specs: tuple[ShardSpec, ...], backend: str,
                 workers: int, faults: ProcessFaultPlan | None,
                 policy: SupervisorPolicy, checkpoint_dir: str | None,
                 seed: int) -> None:
        self.policy = policy
        self.process = backend == "process"
        #: In-flight cap: the pool width (one at a time when serial).
        self.width = workers if self.process else 1
        self.faults = faults
        self.seed = seed
        self.checkpoint_dir = checkpoint_dir
        self.stats = SupervisorStats(backend=backend, workers=workers)
        self.states = {
            shard.shard_id: _ShardState(shard) for shard in shard_specs
        }
        self.inflight: dict[Future, _Flight] = {}
        #: Shards doomed together by one pool break; each runs alone.
        self.suspects: set[int] = set()
        self._counters: dict = {}
        self.pool = self._new_pool()

    def _new_pool(self):
        if self.process:
            return ProcessPoolExecutor(max_workers=self.width)
        return _InlineExecutor()

    def _count(self, name: str, amount: int = 1) -> None:
        """Bump one recovery counter, in the stats and under obs."""
        setattr(self.stats, name, getattr(self.stats, name) + amount)
        if name not in self._counters:
            self._counters[name] = obs.counter(f"fleet.supervisor.{name}")
        self._counters[name].inc(amount)

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------

    def run(self) -> tuple[list[ShardReport], list[ShardFailure]]:
        try:
            while not all(state.resolved for state in self.states.values()):
                now = _time.monotonic()
                # Queued work takes free workers before any hedge does.
                if not (self._submit_ready(now)
                        and self._hedge_stragglers(now)):
                    continue  # the pool broke at submit and was rebuilt
                timeout = self._next_wake(now)
                if not self.inflight:
                    if timeout is None:
                        self._stall()
                        break
                    _time.sleep(timeout)
                    continue
                done, _ = wait(self.inflight, timeout=timeout,
                               return_when=FIRST_COMPLETED)
                broken = None
                for future in done:
                    if future not in self.inflight:
                        continue  # drained by a break at submit
                    if isinstance(future.exception(), BrokenExecutor):
                        broken = future
                    else:
                        self._complete(future)
                if broken is not None and broken in self.inflight:
                    self._pool_broke(repr(broken.exception()))
                    continue
                self._kill_expired()
        finally:
            # Hedge losers / duplicates may still be in flight; they
            # will never be used — count and kill them.
            for flight in self.inflight.values():
                self._drop_stale(flight)
            _terminate_pool(self.pool)
        self.stats.shards_failed = sum(
            state.failure is not None for state in self.states.values())
        return ([state.report for state in self.states.values()
                 if state.report is not None],
                [state.failure for state in self.states.values()
                 if state.failure is not None])

    def _may_start(self, shard_id: int) -> bool:
        """In-flight work is capped at the pool width, and a suspect
        starts only on an empty pool with nothing beside it."""
        if not self.inflight:
            return True
        if len(self.inflight) >= self.width or shard_id in self.suspects:
            return False
        return not any(flight.shard_id in self.suspects
                       for flight in self.inflight.values())

    def _submit_ready(self, now: float) -> bool:
        """Start every shard whose time has come, in shard order, until
        one may not start (so a waiting suspect is never overtaken).
        False when the pool broke at submit."""
        for state in self.states.values():
            if state.resolved or state.ready_at is None \
                    or state.ready_at > now:
                continue
            if not self._may_start(state.spec.shard_id):
                break
            if not self._submit(state):
                return False
            state.ready_at = None
        return True

    def _next_wake(self, now: float) -> float | None:
        """Seconds until the next thing the loop scheduled for itself
        (a retry, a hedge, a deadline), or ``None`` to block until a
        completion.  Work that is due but may not start is left out:
        only a completion can unblock it."""
        times = [state.ready_at for state in self.states.values()
                 if not state.resolved and state.ready_at is not None
                 and state.ready_at > now]
        hedge_after = self.policy.hedge_after_s
        deadline = self.policy.shard_deadline_s
        for flight in self.inflight.values():
            if hedge_after is not None and self._hedgeable(flight):
                times.append(flight.submitted_at + hedge_after)
            if deadline is not None:
                times.append(flight.submitted_at + deadline)
        return max(min(times) - now, 0.0) if times else None

    def _stall(self) -> None:
        """Nothing in flight and nothing scheduled (should be
        unreachable): fail whatever is left rather than spin."""
        for state in self.states.values():
            if not state.resolved:
                self._resolve_failure(
                    state, state.exhausted_error
                    or "supervisor stalled with no live attempt")

    # ------------------------------------------------------------------
    # submissions and completions
    # ------------------------------------------------------------------

    def _submit(self, state: _ShardState, hedge: bool = False,
                duplicate_of: int | None = None) -> bool:
        """Start one attempt (``duplicate_of`` redelivers a finished
        attempt instead).  False, with nothing started, when the pool
        turned out to be broken."""
        attempt = state.attempts if duplicate_of is None else duplicate_of
        job = ShardJob(
            shard=state.spec, attempt=attempt, seed=self.seed,
            faults=self.faults, checkpoint_dir=self.checkpoint_dir,
            hard_crash_ok=self.process, hedge=hedge,
        )
        try:
            future = self.pool.submit(run_shard_job, job)
        except BrokenExecutor as exc:
            self._pool_broke(repr(exc))
            return False
        if duplicate_of is None:
            state.attempts += 1
        self.stats.attempts_total += 1
        self.inflight[future] = _Flight(
            state.spec.shard_id, attempt, _time.monotonic(),
            hedge=hedge, duplicate=duplicate_of is not None)
        state.inflight += 1
        return True

    def _complete(self, future: Future) -> None:
        """Merge, reject or drop one finished (or failed) attempt."""
        flight = self.inflight.pop(future)
        state = self.states[flight.shard_id]
        state.inflight -= 1
        if state.resolved or flight.duplicate:
            self._drop_stale(flight)
            return
        error = future.exception()
        if error is not None:
            self._count("crashes_detected")
            self._fail(state, repr(error), "crash")
            return
        result = future.result()
        invalid = validate_shard_report(result, state.spec)
        if invalid is not None:
            self._count("poisoned_reports")
            self._fail(state, invalid, "poison")
            return
        state.report = result
        self.suspects.discard(flight.shard_id)
        self._count("rooms_resumed", result.rooms_resumed)
        decision = shard_fault_decision(
            self.faults, self.seed, flight.shard_id, flight.attempt)
        # An at-least-once queue redelivers the same attempt once
        # (cheap with a checkpoint dir — it resumes every room); dedup
        # must drop it.
        if decision.duplicate and self._submit(state,
                                               duplicate_of=flight.attempt):
            self._count("duplicates_injected")

    def _drop_stale(self, flight: _Flight) -> None:
        if flight.hedge:
            self._count("hedges_wasted")
        elif flight.duplicate:
            self._count("duplicates_dropped")
        else:
            self._count("late_results_dropped")

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------

    def _resolve_failure(self, state: _ShardState, error: str,
                         quarantined: bool = False) -> None:
        state.failure = ShardFailure(
            shard_id=state.spec.shard_id, error=error,
            attempts=state.attempts, quarantined=quarantined,
        )
        self.suspects.discard(state.spec.shard_id)
        if quarantined:
            self._count("shards_quarantined")

    def _fail(self, state: _ShardState, error: str, kind: str) -> None:
        """One attempt died; decide retry / quarantine / give up."""
        now = _time.monotonic()
        state.failures += 1
        with obs.span("fleet.supervisor.recover",
                      shard=state.spec.shard_id, kind=kind):
            if state.failures >= self.policy.quarantine_threshold:
                self._resolve_failure(
                    state,
                    f"quarantined after {state.failures} consecutive "
                    f"failures (last: {error})",
                    quarantined=True,
                )
                return
            if state.attempts >= self.policy.max_attempts:
                state.exhausted_error = error
                if state.inflight == 0 and state.ready_at is None:
                    self._resolve_failure(
                        state, f"attempt budget exhausted ({error})")
                return
            if state.ready_at is not None or state.inflight > 0:
                # A retry is already queued, or a sibling attempt
                # (hedge) is still racing — no extra submission.
                return
            if state.schedule is None:
                state.schedule = RETRY_POLICY.schedule(now)
            retry_at = state.schedule.next_retry(now)
            if retry_at is None:
                self._resolve_failure(
                    state, f"retry deadline exhausted ({error})")
                return
            state.ready_at = retry_at
            self._count("retries_scheduled")

    def _pool_broke(self, error: str) -> None:
        """A killed worker broke the pool, dooming every attempt in it.
        A lone doomed attempt is charged the crash; several doomed
        together are all refunded and re-run alone as suspects."""
        flights = list(self.inflight.items())
        if len(flights) == 1:
            future, flight = flights[0]
            state = self.states[flight.shard_id]
            if not state.resolved and not flight.duplicate:
                del self.inflight[future]
                state.inflight -= 1
                self._count("crashes_detected")
                self._fail(state, error, "crash")
        self._requeue_and_rebuild(suspects=True)

    def _requeue_and_rebuild(self, suspects: bool) -> None:
        """The pool is dying: refund every innocent in-flight attempt
        (a casualty, not an offender), line it up again, and stand up a
        fresh pool."""
        now = _time.monotonic()
        for flight in self.inflight.values():
            state = self.states[flight.shard_id]
            state.inflight -= 1
            if state.resolved or flight.duplicate:
                self._drop_stale(flight)
                continue
            state.attempts -= 1
            self.stats.attempts_total -= 1
            if state.ready_at is None:
                state.ready_at = now
            if suspects:
                self.suspects.add(flight.shard_id)
        self.inflight.clear()
        _terminate_pool(self.pool)
        self.pool = self._new_pool()
        self._count("pool_rebuilds")

    # ------------------------------------------------------------------
    # stragglers and deadlines
    # ------------------------------------------------------------------

    def _hedgeable(self, flight: _Flight) -> bool:
        state = self.states[flight.shard_id]
        return not (state.resolved or flight.hedged or flight.duplicate
                    or state.inflight != 1
                    or state.hedges >= MAX_HEDGES_PER_SHARD
                    or state.attempts >= self.policy.max_attempts
                    or not self._may_start(flight.shard_id))

    def _hedge_stragglers(self, now: float) -> bool:
        """Race a second attempt against every straggler a free worker
        can take.  False when the pool broke at submit."""
        if self.policy.hedge_after_s is None:
            return True
        for flight in list(self.inflight.values()):
            if (now - flight.submitted_at >= self.policy.hedge_after_s
                    and self._hedgeable(flight)):
                state = self.states[flight.shard_id]
                if not self._submit(state, hedge=True):
                    return False
                flight.hedged = True
                state.hedges += 1
                self._count("stragglers_hedged")
        return True

    def _kill_expired(self) -> None:
        deadline = self.policy.shard_deadline_s
        if deadline is None or not self.inflight:
            return
        now = _time.monotonic()
        expired = [(future, flight)
                   for future, flight in self.inflight.items()
                   if now - flight.submitted_at >= deadline
                   and not future.done()]
        if not expired:
            return
        for future, flight in expired:
            del self.inflight[future]
            state = self.states[flight.shard_id]
            state.inflight -= 1
            self._count("deadline_kills")
            if not state.resolved and not flight.duplicate:
                self._fail(state,
                           f"attempt exceeded {deadline:.3f} s deadline "
                           f"(worker killed)", "deadline")
        self._requeue_and_rebuild(suspects=False)


def run_fleet(
    spec: FleetSpec,
    num_shards: int = 1,
    backend: str = "serial",
    workers: int | None = None,
    faults: ProcessFaultPlan | None = None,
    policy: SupervisorPolicy | None = None,
    checkpoint_dir: str | None = None,
    seed: int | None = None,
) -> FleetReport:
    """Partition the fleet into shards and execute them.

    Parameters
    ----------
    spec:
        The fleet topology.
    num_shards:
        How many contiguous room-groups to cut the fleet into.
    backend:
        ``"serial"`` (reference) or ``"process"`` (pool).
    workers:
        Pool width for the process backend (the in-flight cap);
        defaults to ``num_shards``.
    faults:
        Process-level chaos to inject (see
        :class:`~repro.faults.process.ProcessFaultPlan`); ``None`` runs
        clean.
    policy:
        Recovery knobs; the default allows five attempts per shard
        with no hedging and no deadline.
    checkpoint_dir:
        Where workers spill finished rooms so a retry resumes instead
        of recomputing; ``None`` spills nothing.
    seed:
        Seed of the fault schedule; defaults to ``spec.seed``.

    The returned report's ``supervisor`` field carries the run's
    :class:`SupervisorStats`.
    """
    if backend not in ("serial", "process"):
        raise ValueError(f"unknown fleet backend {backend!r}")
    workers = num_shards if workers is None else workers
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    wall_start = _time.perf_counter()
    loop = _FleetLoop(
        spec.shard_specs(num_shards), backend, workers, faults,
        policy or SupervisorPolicy(),
        None if checkpoint_dir is None else str(checkpoint_dir),
        spec.seed if seed is None else seed,
    )
    reports, failures = loop.run()
    return build_fleet_report(
        spec=spec,
        backend=backend,
        num_shards=num_shards,
        workers=workers if backend == "process" else 1,
        shards=reports,
        failures=failures,
        wall_s=_time.perf_counter() - wall_start,
        supervisor=loop.stats,
    )


__all__ = [
    "ShardFailure",
    "SupervisorPolicy",
    "SupervisorStats",
    "run_fleet",
    "validate_shard_report",
]
