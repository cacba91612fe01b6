"""Frequency planning: who may play what.

Section 3: "we empirically found that a distance of approximately 20 Hz
between frequencies is needed to accurately differentiate them.  Each
switch in our testbed was assigned a unique set of frequencies, so that
we can identify sounds played by different switches at the same time."
And §5: "we could distinguish up to 1000 distinct frequencies played
simultaneously only considering the human-hearable frequency range."

:class:`FrequencyPlan` is the allocator enforcing those rules: a band
of candidate frequencies on a guard-spaced grid, handed out in blocks
to named devices, with reverse lookup so a detected tone can be traced
back to (device, index).

A plan is static once its blocks are handed out, as in the paper's
testbed; a device can :meth:`~FrequencyPlan.release` its block, and
later allocations reuse the freed slots.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

#: The paper's empirical separation requirement, Hz.
DEFAULT_GUARD_HZ = 20.0

#: Default usable band: above HVAC/fan rumble, inside cheap-speaker
#: response, inside the audible range the paper restricts itself to.
DEFAULT_BAND = (400.0, 7_600.0)


class FrequencyPlanError(ValueError):
    """Raised when an allocation cannot be satisfied."""


def _nearest_within(
    candidates: list[float], frequency: float, tolerance_hz: float
) -> float | None:
    """The candidate nearest ``frequency`` if within ``tolerance_hz``.

    ``candidates`` must be sorted ascending.  Detected frequencies are
    FFT-bin-quantized (and parabolic interpolation adds its own
    epsilon), so reverse lookups must never rely on exact float
    equality with the plan grid.
    """
    if not candidates:
        return None
    index = bisect_left(candidates, frequency)
    best: float | None = None
    for neighbour in candidates[max(0, index - 1):index + 1]:
        if best is None or abs(neighbour - frequency) < abs(best - frequency):
            best = neighbour
    if best is not None and abs(best - frequency) <= tolerance_hz:
        return best
    return None


@dataclass(frozen=True)
class Allocation:
    """A device's assigned frequency block."""

    device: str
    frequencies: tuple[float, ...]

    def frequency_for(self, index: int) -> float:
        """The device's ``index``-th assigned frequency (for mapping
        symbols — ports, queue bands, flow-hash buckets — to tones)."""
        return self.frequencies[index]

    def index_of(self, frequency: float,
                 tolerance_hz: float = DEFAULT_GUARD_HZ / 2) -> int:
        """Inverse of :meth:`frequency_for`.

        The lookup is tolerance-based (default: half the guard band):
        a detected tone arrives FFT-bin-quantized, so ``frequency`` may
        differ from the assigned value by up to a bin width.  Raises
        :class:`ValueError` when nothing is within tolerance, like the
        exact ``list.index`` it replaces.
        """
        ordered = sorted(self.frequencies)
        match = _nearest_within(ordered, float(frequency), tolerance_hz)
        if match is None:
            raise ValueError(
                f"{frequency} Hz is not within {tolerance_hz} Hz of any "
                f"frequency allocated to {self.device!r}"
            )
        return self.frequencies.index(match)

    def __len__(self) -> int:
        return len(self.frequencies)


class FrequencyPlan:
    """Guard-spaced frequency allocator over a band.

    Parameters
    ----------
    low_hz, high_hz:
        Band edges (inclusive low, inclusive high).
    guard_hz:
        Minimum spacing between any two allocated frequencies
        (paper: 20 Hz).
    """

    def __init__(
        self,
        low_hz: float = DEFAULT_BAND[0],
        high_hz: float = DEFAULT_BAND[1],
        guard_hz: float = DEFAULT_GUARD_HZ,
    ) -> None:
        if not 0 < low_hz < high_hz:
            raise FrequencyPlanError(f"invalid band [{low_hz}, {high_hz}]")
        if guard_hz <= 0:
            raise FrequencyPlanError(f"guard must be positive, got {guard_hz}")
        self.low_hz = low_hz
        self.high_hz = high_hz
        self.guard_hz = guard_hz
        self._allocations: dict[str, Allocation] = {}
        self._owner_by_frequency: dict[float, str] = {}
        self._slot_owner: dict[int, str] = {}

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Total distinct frequencies the band supports at this guard.

        With the full audible band (≈20 Hz–20 kHz) and a 20 Hz guard
        this evaluates to ~1000 — the paper's §5 capacity estimate.
        """
        return int((self.high_hz - self.low_hz) / self.guard_hz) + 1

    @property
    def allocated_count(self) -> int:
        return len(self._slot_owner)

    @property
    def remaining(self) -> int:
        return self.capacity - self.allocated_count

    def slot_frequency(self, slot: int) -> float:
        """The frequency of grid slot ``slot``."""
        if not 0 <= slot < self.capacity:
            raise FrequencyPlanError(
                f"slot {slot} outside [0, {self.capacity})"
            )
        return self.low_hz + slot * self.guard_hz

    def slot_of(self, frequency: float) -> int:
        """The grid slot whose centre is nearest ``frequency``."""
        slot = int(round((float(frequency) - self.low_hz) / self.guard_hz))
        if not 0 <= slot < self.capacity:
            raise FrequencyPlanError(
                f"{frequency} Hz is outside the plan band "
                f"[{self.low_hz}, {self.high_hz}]"
            )
        return slot

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate(self, device: str, count: int) -> Allocation:
        """Assign ``count`` fresh frequencies to ``device``.

        Each device may hold exactly one block (call once per device,
        or :meth:`release` first); blocks never overlap, and all
        frequencies in all blocks are at least ``guard_hz`` apart.
        Slots freed by :meth:`release` are reused, lowest first.
        """
        if count < 1:
            raise FrequencyPlanError(f"count must be >= 1, got {count}")
        if device in self._allocations:
            raise FrequencyPlanError(f"device {device!r} already has a block")
        if count > self.remaining:
            raise FrequencyPlanError(
                f"band exhausted: need {count} slots, {self.remaining} left"
            )
        slots = []
        slot = 0
        while len(slots) < count:
            if slot not in self._slot_owner:
                slots.append(slot)
            slot += 1
        frequencies = tuple(self.slot_frequency(taken) for taken in slots)
        allocation = Allocation(device, frequencies)
        self._allocations[device] = allocation
        for taken, frequency in zip(slots, frequencies):
            self._slot_owner[taken] = device
            self._owner_by_frequency[frequency] = device
        return allocation

    def release(self, device: str) -> None:
        """Return ``device``'s block to the free pool.

        The freed slots become eligible for later :meth:`allocate`
        calls.  Releasing an unknown device raises
        :class:`FrequencyPlanError`.
        """
        allocation = self._allocations.pop(device, None)
        if allocation is None:
            raise FrequencyPlanError(f"no allocation for device {device!r}")
        for frequency in allocation.frequencies:
            self._owner_by_frequency.pop(frequency, None)
            self._slot_owner.pop(self.slot_of(frequency), None)

    def allocation_of(self, device: str) -> Allocation:
        allocation = self._allocations.get(device)
        if allocation is None:
            raise FrequencyPlanError(f"no allocation for device {device!r}")
        return allocation

    def devices(self) -> list[str]:
        """Every device holding a block, sorted."""
        return sorted(self._allocations)

    def owner_of(self, frequency: float,
                 tolerance_hz: float | None = None) -> str | None:
        """Which device owns a frequency (None if unallocated).

        Lookup is tolerance-based — default half the guard band — so a
        detected, FFT-bin-quantized frequency still resolves to its
        plan entry.  Pass ``tolerance_hz=0.0`` for the old exact-match
        behaviour.
        """
        owner = self._owner_by_frequency.get(float(frequency))
        if owner is not None:
            return owner
        if tolerance_hz is None:
            tolerance_hz = self.guard_hz / 2.0
        if tolerance_hz <= 0.0:
            return None
        match = _nearest_within(
            sorted(self._owner_by_frequency), float(frequency), tolerance_hz
        )
        return self._owner_by_frequency[match] if match is not None else None

    def all_frequencies(self) -> list[float]:
        """Every allocated frequency, ascending — the controller's
        watch list."""
        return sorted(self._owner_by_frequency)

    def validate_disjoint(self) -> None:
        """Invariant check: every pair of allocated frequencies is at
        least ``guard_hz`` apart (used by property tests)."""
        frequencies = self.all_frequencies()
        for first, second in zip(frequencies, frequencies[1:]):
            if second - first < self.guard_hz - 1e-9:
                raise FrequencyPlanError(
                    f"guard violation: {first} and {second} are "
                    f"{second - first} Hz apart"
                )
