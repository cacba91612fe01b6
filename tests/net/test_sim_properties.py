"""Property-based tests for the discrete-event simulator."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Simulator

delays = st.lists(st.floats(min_value=0.0, max_value=100.0),
                  min_size=1, max_size=40)


class TestExecutionOrder:
    @settings(max_examples=60, deadline=None)
    @given(delays)
    def test_events_fire_in_time_order(self, schedule):
        sim = Simulator()
        fired = []
        for delay in schedule:
            sim.schedule(delay, lambda d=delay: fired.append((sim.now, d)))
        sim.run(200.0)
        times = [time for time, _delay in fired]
        assert times == sorted(times)
        assert len(fired) == len(schedule)
        for time, delay in fired:
            assert time == delay

    @settings(max_examples=40, deadline=None)
    @given(delays, st.data())
    def test_cancelled_events_never_fire(self, schedule, data):
        sim = Simulator()
        fired = []
        events = [
            sim.schedule(delay, lambda index=index: fired.append(index))
            for index, delay in enumerate(schedule)
        ]
        to_cancel = data.draw(st.sets(
            st.integers(min_value=0, max_value=len(events) - 1)
        ))
        for index in to_cancel:
            sim.cancel(events[index])
        sim.run(200.0)
        assert set(fired) == set(range(len(events))) - to_cancel

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0.01, max_value=10.0),
                    min_size=1, max_size=10))
    def test_run_in_chunks_equals_run_at_once(self, boundaries):
        """Splitting a run() into arbitrary chunks never changes what
        executes or when."""
        def build():
            sim = Simulator()
            log = []
            for delay in (0.5, 1.5, 3.0, 7.5, 9.9):
                sim.schedule(delay, lambda d=delay: log.append((sim.now, d)))
            return sim, log

        sim_single, log_single = build()
        sim_single.run(12.0)

        sim_chunked, log_chunked = build()
        clock = 0.0
        for boundary in sorted(boundaries):
            clock = max(clock, boundary)
            sim_chunked.run(clock)
        sim_chunked.run(12.0)

        assert log_single == log_chunked

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.05, max_value=3.0),
           st.floats(min_value=1.0, max_value=30.0))
    def test_periodic_fire_count(self, interval, horizon):
        sim = Simulator()
        timer = sim.every(interval, lambda: None)
        sim.run(horizon)
        # Repeated float addition accumulates ~1 ulp per firing, so the
        # final tick may land just across the horizon in either
        # direction: exact count up to ±1.
        expected = int(horizon / interval + 1e-9)
        assert abs(timer.fire_count - expected) <= 1
