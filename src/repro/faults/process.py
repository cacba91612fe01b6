"""Process-level fault injection: crash, hang, poison, duplicate.

PR 4 taught the *acoustic* rig to survive dead speakers and lossy
links; this module does the same for the *execution substrate* of the
fleet — the worker processes that run shards.  A real pool misbehaves
in four canonical ways, and the chaos harness injects exactly those:

================  =====================================================
fault             what the worker does
================  =====================================================
crash             dies mid-shard — either by raising
                  :class:`SimulatedWorkerCrash` (the pool surfaces a
                  per-future exception) or, in ``hard`` mode, by
                  ``os._exit`` (the whole ``ProcessPoolExecutor``
                  breaks, the worst case the fleet loop must survive)
hang/straggler    sleeps ``straggler_delay_s`` of real wall time before
                  doing any work — the slow-worker shape hedging exists
                  for
poisoned report   completes but returns a :class:`PoisonedShardReport`
                  instead of its real report; the supervisor's
                  integrity validation must reject it, never merge it
duplicate result  the shard's (correct) result is delivered twice —
                  an at-least-once queue retrying a non-idempotent
                  delivery; dedup-by-shard-id must drop the second
================  =====================================================

Determinism follows the PR 4 rules: every draw comes from
``seeded_rng(seed, "shard:<id>")``, one fixed-width block of draws per
attempt, so the fault schedule of shard 7's attempt 2 is a pure
function of ``(seed, 7, 2)`` — the same whichever worker runs it,
however the pool interleaves, and bit-identical when the plan is
disabled (no plan, no draws, no perturbation of any other stream).

Faults change *when and whether an attempt finishes* — never what a
finished room computed.  Rooms are deterministic, so any schedule of
crashes, hangs, poisons and duplicates that the supervisor recovers
from must yield the exact fault-free result; that is the headline
contract XEXT17 verifies.

``max_faulty_attempts`` bounds the chaos per shard: attempts past it
run clean, so a supervisor allowed more attempts than that is
*guaranteed* to make progress — chaos tests terminate by construction,
not by luck.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .harness import seeded_rng

#: Draws consumed per attempt decision (crash? where? hang? poison?
#: duplicate?).  Fixed width keeps attempt k's block at a stable
#: offset in the shard's stream no matter which faults are enabled.
_DRAWS_PER_ATTEMPT = 5


class SimulatedWorkerCrash(RuntimeError):
    """An injected worker death (the soft, exception-shaped kind)."""


@dataclass(frozen=True)
class PoisonedShardReport:
    """The junk a compromised worker hands back instead of its report.

    Deliberately picklable: an *unpicklable* result would wedge
    ``ProcessPoolExecutor``'s result-handling thread itself (the
    deserialization error fires outside any future), which is a
    CPython implementation hazard, not a recoverable fleet fault.  The
    poison the supervisor must survive is a result that *arrives* but
    is wrong — wrong type, wrong shard, missing rooms — and that is
    exactly what integrity validation rejects.
    """

    shard_id: int
    note: str = "poisoned result from faulty worker"


@dataclass(frozen=True)
class ShardFaultDecision:
    """What one attempt at one shard is fated to suffer."""

    crash: bool = False
    #: Fraction of the shard's rooms completed (and checkpointed)
    #: before the crash fires — drawn in [0, 1).
    crash_after_fraction: float = 0.0
    hard: bool = False
    straggle: bool = False
    straggler_delay_s: float = 0.0
    poison: bool = False
    duplicate: bool = False

    @property
    def clean(self) -> bool:
        return not (self.crash or self.straggle or self.poison
                    or self.duplicate)

    def crash_after_rooms(self, num_rooms: int) -> int | None:
        """How many rooms this attempt completes before dying
        (``None`` when it does not crash).  Always strictly fewer than
        ``num_rooms`` — a crash must cost something."""
        if not self.crash:
            return None
        return min(int(self.crash_after_fraction * num_rooms),
                   max(num_rooms - 1, 0))


_CLEAN = ShardFaultDecision()


@dataclass(frozen=True)
class ProcessFaultPlan:
    """Seeded chaos knobs for the worker pool (picklable, frozen).

    Rates are independent per-attempt Bernoulli draws; a single
    attempt can straggle *and* crash (it sleeps, completes some rooms,
    then dies) — the compound case checkpoint resume exists for.
    """

    #: P(an attempt dies mid-shard).
    crash_rate: float = 0.0
    #: Crash via ``os._exit`` (breaks the whole pool) instead of an
    #: exception.  Only honored when the job says it is safe (a real
    #: worker process, never the driver's own interpreter).
    hard_crash: bool = False
    #: P(an attempt sleeps before working).
    straggler_rate: float = 0.0
    #: How long a straggling attempt sleeps (real seconds — wall-clock
    #: is the one thing process faults are allowed to touch).
    straggler_delay_s: float = 0.25
    #: P(a completing attempt returns poison instead of its report).
    poison_rate: float = 0.0
    #: P(a successful result is delivered a second time).
    duplicate_rate: float = 0.0
    #: Attempts beyond this index (0-based) run clean — the progress
    #: bound that makes chaos runs terminate by construction.
    max_faulty_attempts: int = 2

    def __post_init__(self) -> None:
        for field_name in ("crash_rate", "straggler_rate", "poison_rate",
                           "duplicate_rate"):
            rate = getattr(self, field_name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"{field_name} must be in [0, 1], got {rate}"
                )
        if self.straggler_delay_s < 0:
            raise ValueError(
                f"straggler_delay_s must be >= 0, "
                f"got {self.straggler_delay_s}"
            )
        if self.max_faulty_attempts < 0:
            raise ValueError(
                f"max_faulty_attempts must be >= 0, "
                f"got {self.max_faulty_attempts}"
            )

    @property
    def active(self) -> bool:
        return (self.crash_rate > 0.0 or self.straggler_rate > 0.0
                or self.poison_rate > 0.0 or self.duplicate_rate > 0.0)


def shard_fault_decision(
    plan: ProcessFaultPlan | None,
    seed: int,
    shard_id: int,
    attempt: int,
) -> ShardFaultDecision:
    """The deterministic fate of ``(shard_id, attempt)`` under ``plan``.

    Walks ``attempt + 1`` fixed-width blocks of the shard's private
    ``seeded_rng(seed, "shard:<id>")`` stream and decides from the
    last, so every attempt's fate is stable regardless of who asks,
    how often, or in which process.  A disabled plan makes no draws at
    all.
    """
    if attempt < 0:
        raise ValueError(f"attempt must be >= 0, got {attempt}")
    if plan is None or not plan.active:
        return _CLEAN
    if attempt > plan.max_faulty_attempts:
        return _CLEAN
    rng = seeded_rng(seed, f"shard:{shard_id}")
    draws = rng.uniform(size=(attempt + 1) * _DRAWS_PER_ATTEMPT)
    block = draws[attempt * _DRAWS_PER_ATTEMPT:]
    return ShardFaultDecision(
        crash=bool(block[0] < plan.crash_rate),
        crash_after_fraction=float(block[1]),
        hard=plan.hard_crash,
        straggle=bool(block[2] < plan.straggler_rate),
        straggler_delay_s=plan.straggler_delay_s,
        poison=bool(block[3] < plan.poison_rate),
        duplicate=bool(block[4] < plan.duplicate_rate),
    )


def crash_now(hard: bool) -> None:
    """Die the way the decision says to (worker-side helper)."""
    if hard:
        os._exit(17)  # pragma: no cover - kills the worker process
    raise SimulatedWorkerCrash("injected worker crash")


__all__ = [
    "PoisonedShardReport",
    "ProcessFaultPlan",
    "ShardFaultDecision",
    "SimulatedWorkerCrash",
    "crash_now",
    "shard_fault_decision",
]
