"""Integration: tone spoofing — the §2 acoustic-insecurity surface.

Attack: the plain queue-monitoring protocol trusts any tone at the
right frequency; a rogue speaker convinces the controller the switch is
congested.
"""

from repro.audio import Position, Speaker, ToneSpec
from repro.core.apps import BandToneMap, QueueChirper, QueueMonitorApp
from repro.experiments.rigs import build_testbed


class TestAttackOnPlainProtocol:
    def test_spoofed_congestion_tone_fools_the_monitor(self):
        """The vulnerability: the queue is empty, but an attacker's
        speaker plays the 700 Hz tone and the controller believes it."""
        testbed = build_testbed("single")
        port = testbed.topo.port_towards("s1", "h2")
        tones = BandToneMap(500.0, 600.0, 700.0)
        QueueChirper(testbed.sim, testbed.topo.switches["s1"], port,
                     testbed.agents["s1"], tones)
        app = QueueMonitorApp(testbed.controller, "s1", tones)
        testbed.controller.start()

        attacker = Speaker(Position(1.5, 1.5, 0.0))
        testbed.sim.schedule_at(2.05, lambda: attacker.play(
            testbed.channel, testbed.sim.now, ToneSpec(700.0, 0.2, 75.0)
        ))
        testbed.sim.run(4.0)
        # No packet ever crossed the switch...
        assert testbed.topo.switches["s1"].packets_received.total == 0
        # ...yet the controller believed a congestion event happened.
        assert "high" in [band for _t, band in app.band_history]

