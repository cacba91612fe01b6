"""Unit tests for the frequency-plan allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FrequencyPlan, FrequencyPlanError


class TestCapacity:
    def test_capacity_formula(self):
        plan = FrequencyPlan(low_hz=1000, high_hz=1100, guard_hz=20)
        assert plan.capacity == 6  # 1000, 1020, ..., 1100

    def test_paper_thousand_frequency_claim(self):
        """§5: ~1000 distinct frequencies in the human-hearable range
        at the paper's 20 Hz separation."""
        plan = FrequencyPlan(low_hz=20.0, high_hz=20_000.0, guard_hz=20.0)
        assert 950 <= plan.capacity <= 1050

    def test_validation(self):
        with pytest.raises(FrequencyPlanError):
            FrequencyPlan(low_hz=100, high_hz=50)
        with pytest.raises(FrequencyPlanError):
            FrequencyPlan(guard_hz=0)


class TestAllocation:
    def test_allocates_on_grid(self):
        plan = FrequencyPlan(low_hz=500, guard_hz=20)
        alloc = plan.allocate("s1", 3)
        assert alloc.frequencies == (500.0, 520.0, 540.0)

    def test_blocks_are_disjoint(self):
        plan = FrequencyPlan(low_hz=500, guard_hz=20)
        first = plan.allocate("s1", 3)
        second = plan.allocate("s2", 3)
        assert set(first.frequencies).isdisjoint(second.frequencies)
        plan.validate_disjoint()

    def test_double_allocation_rejected(self):
        plan = FrequencyPlan()
        plan.allocate("s1", 2)
        with pytest.raises(FrequencyPlanError, match="already"):
            plan.allocate("s1", 2)

    def test_exhaustion(self):
        plan = FrequencyPlan(low_hz=1000, high_hz=1060, guard_hz=20)  # 4 slots
        plan.allocate("a", 3)
        with pytest.raises(FrequencyPlanError, match="exhausted"):
            plan.allocate("b", 2)
        assert plan.remaining == 1

    def test_zero_count_rejected(self):
        with pytest.raises(FrequencyPlanError):
            FrequencyPlan().allocate("x", 0)

    def test_owner_lookup(self):
        plan = FrequencyPlan(low_hz=500, guard_hz=20)
        plan.allocate("s1", 2)
        plan.allocate("s2", 2)
        assert plan.owner_of(500.0) == "s1"
        assert plan.owner_of(540.0) == "s2"
        assert plan.owner_of(999.0) is None

    def test_allocation_of(self):
        plan = FrequencyPlan()
        alloc = plan.allocate("s1", 2)
        assert plan.allocation_of("s1") is alloc
        with pytest.raises(FrequencyPlanError):
            plan.allocation_of("ghost")

    def test_all_frequencies_sorted(self):
        plan = FrequencyPlan(low_hz=500, guard_hz=20)
        plan.allocate("a", 2)
        plan.allocate("b", 2)
        freqs = plan.all_frequencies()
        assert freqs == sorted(freqs)
        assert len(freqs) == 4

    def test_slot_frequency_bounds(self):
        plan = FrequencyPlan(low_hz=1000, high_hz=1100, guard_hz=20)
        assert plan.slot_frequency(0) == 1000.0
        assert plan.slot_frequency(5) == 1100.0
        with pytest.raises(FrequencyPlanError):
            plan.slot_frequency(6)


class TestAllocationObject:
    def test_index_roundtrip(self):
        plan = FrequencyPlan(low_hz=600, guard_hz=20)
        alloc = plan.allocate("s1", 5)
        for index in range(5):
            assert alloc.index_of(alloc.frequency_for(index)) == index

    def test_len(self):
        assert len(FrequencyPlan().allocate("s1", 7)) == 7


class TestToleranceLookup:
    def test_index_of_accepts_fft_quantized_frequency(self):
        # The detector reports bin-centre frequencies: on the 5 Hz FFT
        # grid a 523 Hz assignment comes back as 525 Hz.  Lookups must
        # tolerate anything within half a guard band.
        plan = FrequencyPlan(low_hz=523.0, guard_hz=20.0)
        alloc = plan.allocate("s1", 3)
        assert alloc.index_of(525.0) == 0
        assert alloc.index_of(540.0) == 1
        assert alloc.index_of(523.0 + 2 * 20.0 - 4.9) == 2

    def test_index_of_rejects_out_of_tolerance(self):
        alloc = FrequencyPlan(low_hz=500.0, guard_hz=20.0).allocate("s1", 2)
        with pytest.raises(ValueError):
            alloc.index_of(531.0)   # beyond guard/2 of both entries

    def test_index_of_exact_mode(self):
        alloc = FrequencyPlan(low_hz=500.0, guard_hz=20.0).allocate("s1", 2)
        assert alloc.index_of(500.0, tolerance_hz=0.0) == 0
        with pytest.raises(ValueError):
            alloc.index_of(500.1, tolerance_hz=0.0)

    def test_owner_of_tolerant(self):
        plan = FrequencyPlan(low_hz=500.0, guard_hz=20.0)
        plan.allocate("s1", 2)
        plan.allocate("s2", 2)
        assert plan.owner_of(504.9) == "s1"
        assert plan.owner_of(544.9) == "s2"
        assert plan.owner_of(575.0) is None       # past every entry
        assert plan.owner_of(504.9, tolerance_hz=0.0) is None


class TestReleaseAndReuse:
    def test_release_frees_slots_for_reuse(self):
        plan = FrequencyPlan(low_hz=500.0, guard_hz=20.0)
        first = plan.allocate("a", 3)
        plan.allocate("b", 2)
        plan.release("a")
        assert plan.owner_of(first.frequency_for(0)) is None
        again = plan.allocate("c", 3)
        # Lowest free slots are reused, so "c" lands where "a" was.
        assert again.frequencies == first.frequencies
        plan.validate_disjoint()

    def test_release_unknown_device_raises(self):
        with pytest.raises(FrequencyPlanError):
            FrequencyPlan().release("ghost")

    def test_release_updates_accounting(self):
        plan = FrequencyPlan(low_hz=500.0, high_hz=580.0, guard_hz=20.0)
        plan.allocate("a", 3)
        assert plan.remaining == 2
        plan.release("a")
        assert plan.remaining == 5
        assert plan.allocated_count == 0
        assert "a" not in plan.devices()


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        counts=st.lists(st.integers(min_value=1, max_value=20),
                        min_size=1, max_size=10),
        guard=st.floats(min_value=1.0, max_value=100.0),
    )
    def test_guard_invariant_always_holds(self, counts, guard):
        """Any allocation pattern keeps every pair >= guard apart."""
        plan = FrequencyPlan(low_hz=200.0, high_hz=200.0 + guard * 300,
                             guard_hz=guard)
        for index, count in enumerate(counts):
            if plan.remaining < count:
                break
            plan.allocate(f"dev{index}", count)
        plan.validate_disjoint()

    @settings(max_examples=30, deadline=None)
    @given(count=st.integers(min_value=1, max_value=50))
    def test_accounting(self, count):
        plan = FrequencyPlan(low_hz=100, high_hz=10_000, guard_hz=20)
        before = plan.remaining
        plan.allocate("dev", count)
        assert plan.remaining == before - count
        assert plan.allocated_count == count

    @settings(max_examples=50, deadline=None)
    @given(ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=7),
                  st.integers(min_value=1, max_value=6)),
        min_size=1, max_size=40,
    ))
    def test_allocate_release_never_violates_grid(self, ops):
        """Random interleaved allocate/release churn always leaves
        every pair of live frequencies >= guard apart and disjoint."""
        plan = FrequencyPlan(low_hz=300.0, high_hz=900.0, guard_hz=20.0)
        live: set[str] = set()
        for is_alloc, slot_id, count in ops:
            device = f"dev{slot_id}"
            if is_alloc and device not in live:
                if plan.remaining >= count:
                    plan.allocate(device, count)
                    live.add(device)
            elif not is_alloc and device in live:
                plan.release(device)
                live.discard(device)
            plan.validate_disjoint()
            assert plan.allocated_count == sum(
                len(plan.allocation_of(d)) for d in live)
