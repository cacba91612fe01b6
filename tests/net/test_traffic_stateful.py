"""Stateful property test for ``TrafficSource`` halt/launch cycles.

A halted source's emission callback stays in the simulator heap (lazy
cancellation); a relaunch before it fires once left two chains running
at double rate.  Hypothesis drives a :class:`ConstantRateSource`
through random launches, halts and clock advances and checks that no
packet leaves while halted and that each running interval carries
``rate * duration`` packets, give or take one.
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

from repro.net import ConstantRateSource, Simulator, single_switch_topology

RATE_PPS = 50.0


class HaltLaunchMachine(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.sim = Simulator()
        topo = single_switch_topology(self.sim, 2)
        self.source = ConstantRateSource(topo.hosts["h1"], "10.0.0.2", 80,
                                         rate_pps=RATE_PPS)
        self.running = False
        self.launched_at = 0.0
        self.emitted_at_launch = 0

    @precondition(lambda self: not self.running)
    @rule()
    def launch(self):
        self.source.launch()
        self.running = True
        self.launched_at = self.sim.now
        self.emitted_at_launch = self.source.packets_emitted

    @rule()
    def halt(self):
        self.source.halt()
        self.running = False

    @rule(dt=st.floats(min_value=0.001, max_value=1.0))
    def advance(self, dt):
        before = self.source.packets_emitted
        self.sim.run(self.sim.now + dt)
        if not self.running:
            assert self.source.packets_emitted == before, (
                "packet emitted while halted"
            )

    @invariant()
    def running_interval_at_rate(self):
        if not self.running:
            return
        packets = self.source.packets_emitted - self.emitted_at_launch
        expected = RATE_PPS * (self.sim.now - self.launched_at)
        assert abs(packets - expected) <= 1 + 1e-6, (
            f"{packets} packets where {expected:.2f} were due"
        )


HaltLaunchMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestHaltLaunch = HaltLaunchMachine.TestCase
