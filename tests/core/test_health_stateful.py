"""Stateful property test for the one liveness authority.

Hypothesis drives a single-switch testbed whose switch chirps one
:class:`HeartbeatChirper` into a :class:`ChannelHealthMonitor` through
random runs of whole beats, kills and revives, and checks at every
listen interval that DEAD means dead:

* no DEAD once the chirper has been alive for the past
  ``dead_misses * period + listen_interval``;
* DEAD by ``kill + dead_misses * period + 2 * listen_interval``;
* no transition repeats its previous state.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import ChannelHealth, ChannelHealthMonitor
from repro.core.apps import HeartbeatChirper
from repro.experiments.rigs import build_testbed

PERIOD = 0.5
DEAD_MISSES = 2


class LivenessMachine(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.testbed = build_testbed("single")
        frequency = self.testbed.plan.allocate("liveness/s1", 2) \
            .frequency_for(0)
        self.chirper = HeartbeatChirper(self.testbed.sim,
                                        self.testbed.agents["s1"],
                                        frequency, PERIOD)
        self.monitor = ChannelHealthMonitor(self.testbed.controller,
                                            {"s1": frequency}, PERIOD,
                                            dead_misses=DEAD_MISSES)
        self.listen = self.testbed.controller.listen_interval
        self.testbed.controller.start()
        # Rules advance whole periods from a grid-aligned start, so every
        # kill/revive lands half a period from the nearest beat.  A full
        # miss-rate window of heard beats first establishes the grid and
        # lets a short outage recover through HEALTHY, not DEGRADED.
        self.alive_since = 0.0
        self.killed_at = None
        self.run(self.monitor.window_beats)

    @rule(beats=st.integers(min_value=1, max_value=4))
    def run(self, beats):
        """Advance ``beats`` periods, checking liveness at every window."""
        sim = self.testbed.sim
        start = sim.now
        steps = beats * round(PERIOD / self.listen)
        for step in range(1, steps + 1):
            sim.run(start + step * self.listen)
            self.dead_only_when_silent()

    @precondition(lambda self: self.chirper.alive)
    @rule()
    def kill(self):
        self.chirper.kill()
        self.killed_at = self.testbed.sim.now

    @precondition(lambda self: not self.chirper.alive)
    @rule()
    def revive(self):
        self.chirper.revive()
        self.alive_since = self.testbed.sim.now
        self.killed_at = None

    @invariant()
    def dead_only_when_silent(self):
        now = self.testbed.sim.now
        state = self.monitor.state_of("s1")
        if self.chirper.alive:
            alive_for = now - self.alive_since
            if alive_for >= DEAD_MISSES * PERIOD + self.listen:
                assert state is not ChannelHealth.DEAD, (
                    f"DEAD at {now:.2f} s, alive since "
                    f"{self.alive_since:.2f} s"
                )
        else:
            deadline = (self.killed_at + DEAD_MISSES * PERIOD
                        + 2 * self.listen)
            if now >= deadline:
                assert state is ChannelHealth.DEAD, (
                    f"{state} at {now:.2f} s, killed at "
                    f"{self.killed_at:.2f} s"
                )

    @invariant()
    def transitions_change_state(self):
        assert all(t.previous is not t.state
                   for t in self.monitor.transitions)


LivenessMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
TestLiveness = LivenessMachine.TestCase
