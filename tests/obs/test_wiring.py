"""Integration: the observability layer wired through a listening rig.

A Fig 5-style run (switch chirps, controller listens, queues fill) with
a *co-located second listener* — the configuration that exercises the
channel's render memo — must land nonzero values in the registry and
spans in the tracer, and the disabled default must leave components
fully functional with free-floating counters.
"""

from repro import obs
from repro.artifact import export_json
from repro.audio import AcousticChannel, Microphone, Position, Speaker
from repro.core import MDNController
from repro.core.agent import MusicAgent
from repro.net import Packet, PacketQueue, Simulator
from repro.net.packet import FlowKey


def _listening_rig():
    sim = Simulator()
    channel = AcousticChannel()
    agent = MusicAgent(sim, channel, Speaker(Position(0.5, 0, 0)), "s1")
    # Two controllers sharing one listening position: the second one's
    # renders are memo hits (the air is mixed once per window).
    first = MDNController(sim, channel, Microphone(Position(), seed=1),
                          listen_interval=0.1)
    second = MDNController(sim, channel, Microphone(Position(), seed=2),
                           listen_interval=0.1)
    return sim, agent, first, second


class TestEnabledRun:
    def test_fig5_style_run_emits_metrics_and_spans(self, enabled_obs):
        registry, tracer = enabled_obs
        sim, agent, first, second = _listening_rig()
        heard = []
        first.watch([700.0], on_detection=heard.append)
        second.watch([700.0], on_detection=lambda event: None)
        first.start()
        second.start()
        sim.schedule_at(0.25, lambda: agent.play(700.0, 0.3, 72))
        sim.run(1.0)

        assert heard  # the rig actually detected the chirp
        # Window-latency quantiles are populated.
        window_ms = registry.get("controller.window_ms")
        assert window_ms is not None and window_ms.count > 0
        assert window_ms.p99 >= window_ms.p50 > 0.0
        # The co-located listener hit the render memo.
        assert registry.total("channel.memo_hits") > 0
        # Both controllers' windows are visible (dedup suffixes).
        assert registry.total("controller.windows_processed") == 20
        assert registry.total("sim.events_processed") > 0
        # Spans carry simulation timestamps from the bound clock.
        spans = tracer.by_name("controller.window")
        assert spans
        assert all(span.sim_start is not None for span in spans)
        assert tracer.by_name("sim.run")

    def test_per_callback_site_histograms(self, enabled_obs):
        registry, _tracer = enabled_obs
        sim, agent, first, _second = _listening_rig()
        first.watch([700.0], on_detection=lambda event: None)
        first.start()
        sim.run(0.5)
        site_names = registry.names("sim.callback_ms.")
        assert any("PeriodicTimer._fire" in name for name in site_names)

    def test_queue_occupancy_histogram(self, enabled_obs):
        registry, _tracer = enabled_obs
        queue = PacketQueue(capacity=2, name="q")
        packet = Packet(FlowKey("10.0.0.1", "10.0.0.2", 1, 80))
        queue.enqueue(packet)
        queue.sample(0.1)
        queue.enqueue(packet)
        queue.enqueue(packet)  # over capacity -> drop
        queue.sample(0.2)
        hist = registry.get("queue.occupancy")
        assert hist is not None and hist.count == 2
        assert hist.max == 2
        assert registry.total("queue.drops") == 1

    def test_export_round_trip(self, enabled_obs, tmp_path):
        registry, tracer = enabled_obs
        sim, agent, first, _second = _listening_rig()
        first.watch([700.0], on_detection=lambda event: None)
        first.start()
        sim.run(0.3)
        path = export_json(
            registry.snapshot() | {"trace": tracer.snapshot(limit=10)},
            tmp_path / "OBS_rig.json")
        assert path.exists()


class TestDisabledRun:
    def test_counters_still_count_without_registry(self):
        assert not obs.enabled()
        sim, agent, first, _second = _listening_rig()
        first.watch([700.0], on_detection=lambda event: None)
        first.start()
        sim.schedule_at(0.25, lambda: agent.play(700.0, 0.3, 72))
        sim.run(1.0)
        # API-compatible properties keep working with obs off.
        assert first.windows_processed == 10
        assert first.detections > 0
        assert sim.events_processed > 0
        assert first.channel.render_cache_misses > 0
