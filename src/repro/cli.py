"""Command-line driver: regenerate any paper figure from a shell.

::

    python -m repro list                 # what can be run
    python -m repro run fig3             # one experiment, printed report
    python -m repro run all              # everything (a few minutes)
    python -m repro run fig4ab --song    # variant flags where relevant
    python -m repro render knock out.wav # write experiment audio you
                                         # can actually listen to

This is the adoption path for people who want the paper's numbers
without reading the benchmark suite; every command is a thin driver
over :mod:`repro.experiments`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from . import experiments


def _workload_mix_names() -> list[str]:
    from .net.workload import WORKLOAD_MIXES

    return list(WORKLOAD_MIXES)


def _print_table(title: str, rows: list[tuple]) -> None:
    print(f"\n== {title}")
    widths = [max(len(str(row[col])) for row in rows)
              for col in range(len(rows[0]))] if rows else []
    for row in rows:
        cells = [str(cell).ljust(width) for cell, width in zip(row, widths)]
        print("   " + "  ".join(cells).rstrip())


def run_fig2a(args: argparse.Namespace) -> None:
    result = experiments.multiswitch_fft(
        num_switches=args.switches,
        noise_level_db=55.0 if args.noise else None,
    )
    rows = [("switch", "played Hz", "measured Hz", "level dB")]
    for name in sorted(result.played):
        rows.append((name, f"{result.played[name]:.0f}",
                     f"{result.detected.get(name, float('nan')):.1f}",
                     f"{result.levels_db.get(name, float('nan')):.1f}"))
    _print_table("Fig 2a: simultaneous switch identification", rows)
    print(f"   all identified: {result.all_identified}")


def run_fig2b(args: argparse.Namespace) -> None:
    result = experiments.fft_latency_cdf(num_samples=args.samples)
    rows = [("percentile", "ms")]
    rows += [(f"p{q}", f"{v:.4f}") for q, v in result.cdf_points()]
    _print_table("Fig 2b: FFT processing-time CDF (paper: p90 <= 0.35 ms)",
                 rows)


def run_fig3(args: argparse.Namespace) -> None:
    result = experiments.port_knocking_experiment()
    rows = [("t (s)", "sent kB", "recvd kB")]
    for time, sent in zip(result.sent_bytes.times[::4],
                          result.sent_bytes.values[::4]):
        rows.append((f"{time:.0f}", f"{sent / 1000:.0f}",
                     f"{result.received_bytes.value_at(time) / 1000:.0f}"))
    _print_table("Fig 3a: bytes sent / received", rows)
    print(f"   knocks heard: {result.knock_ports_heard}; "
          f"port opened at t = {result.opened_at:.1f} s")


def _print_precision_recall(label: str, pr: dict | None) -> None:
    if pr is None:
        return
    print(f"   {label} vs ground truth: "
          f"precision {pr['precision']:.2f}  recall {pr['recall']:.2f}  "
          f"(tp {pr['true_positives']}, fp {pr['false_positives']}, "
          f"fn {pr['false_negatives']})")


def run_fig4ab(args: argparse.Namespace) -> None:
    workload = getattr(args, "workload", None)
    result = experiments.heavy_hitter_experiment(
        with_song=args.song, workload=workload,
        num_flows=32 if workload else 10,
    )
    condition = "with song" if args.song else "clean"
    if workload:
        condition += f", workload {workload}"
    rows = [("interval end", "heavy-bucket windows")]
    rows += [(f"{t:.0f}", int(v)) for t, v in zip(
        result.per_interval_heavy_counts.times,
        result.per_interval_heavy_counts.values)]
    _print_table(f"Fig 4a/b ({condition}): heavy hitter detection", rows)
    print(f"   heavy flow {result.heavy_flow} -> "
          f"{result.heavy_frequency:.0f} Hz; detected: "
          f"{result.heavy_detected}; false positives: "
          f"{len(result.false_positive_frequencies)}")
    _print_precision_recall("heavy hitter", result.precision_recall)


def run_fig4cd(args: argparse.Namespace) -> None:
    workload = getattr(args, "workload", None)
    result = experiments.port_scan_experiment(with_song=args.song,
                                              workload=workload)
    condition = "with song" if args.song else "clean"
    if workload:
        condition += f", workload {workload}"
    _print_table(f"Fig 4c/d ({condition}): port scan detection", [
        ("scan detected", result.scan_detected),
        ("ports heard", len(result.ports_heard)),
        ("sweep order preserved",
         result.ports_heard == sorted(result.ports_heard)),
    ])
    _print_precision_recall("port scan", result.precision_recall)


def run_fig5ab(args: argparse.Namespace) -> None:
    result = experiments.load_balancing_experiment(
        workload=getattr(args, "workload", None)
    )
    rows = [("t (s)", "queue pkts")]
    rows += [(f"{t:.1f}", int(v)) for t, v in zip(
        result.queue_series.times[::2], result.queue_series.values[::2])]
    _print_table("Fig 5a: queue under ramping load (split on 700 Hz tone)",
                 rows)
    print(f"   split installed at t = {result.split_time:.2f} s "
          f"(paper run: 3.7 s); final queue {result.final_queue:.0f}")
    if result.workload:
        print(f"   background workload {result.workload}: "
              f"{result.background_packets} packets")


def run_fig5cd(args: argparse.Namespace) -> None:
    result = experiments.queue_monitor_experiment()
    tone = {"low": "500 Hz", "medium": "600 Hz", "high": "700 Hz"}
    rows = [("t (s)", "tone", "band")]
    rows += [(f"{t:.1f}", tone[band], band)
             for t, band in result.band_history]
    _print_table("Fig 5c/d: queue bands by ear", rows)


def run_fig6(args: argparse.Namespace) -> None:
    rows = [("room", "fan", "line dB", "floor dB", "prominence dB")]
    for room in ("datacenter", "office"):
        for fan_on in (True, False):
            panel = experiments.fan_spectrogram_panel(room, fan_on)
            rows.append((room, "ON" if fan_on else "OFF",
                         f"{panel.blade_line_level_db:.1f}",
                         f"{panel.noise_floor_db:.1f}",
                         f"{panel.line_prominence_db:.1f}"))
    _print_table("Fig 6: blade-pass line vs room floor", rows)


def run_fig7(args: argparse.Namespace) -> None:
    rows = [("room", "on-on max", "on-off min", "separation", "detected at")]
    for room in ("datacenter", "office"):
        result = experiments.fan_failure_experiment(room=room)
        rows.append((room, f"{result.on_on_max_score:.1f}",
                     f"{result.on_off_min_score:.1f}",
                     f"{result.separation_ratio:.1f}x",
                     f"{result.detection_time:.1f} s"))
    _print_table("Fig 7: amplitude-difference failure detection", rows)


def run_xbase(args: argparse.Namespace) -> None:
    workload = getattr(args, "workload", None)
    sketch = experiments.sketch_vs_mdn(
        workload=workload, num_flows=32 if workload else 10,
    )
    _print_table("XBASE1: sketch vs MDN", [
        ("MDN / sketch detected", f"{sketch.mdn_detected} / "
         f"{sketch.sketch_detected}"),
    ])
    _print_precision_recall("MDN detector", sketch.mdn_precision_recall)
    ecn = experiments.ecn_vs_mdn()
    _print_table("XBASE2: notification latency", [
        ("MDN tone", f"{ecn.mdn_latency * 1000:.0f} ms"),
        ("ECN echo", f"{ecn.ecn_latency * 1000:.0f} ms"),
    ])
    oob = experiments.inband_vs_oob()
    _print_table("XBASE3: delivery through data-plane failure", [
        ("in-band", f"{oob.inband_delivery_rate:.2f}"),
        ("acoustic", f"{oob.acoustic_delivery_rate:.2f}"),
    ])


def run_xext(args: argparse.Namespace) -> None:
    relay = experiments.relay_experiment()
    _print_table("XEXT1: multi-hop relay", [
        ("direct heard", relay.direct_heard),
        ("relayed heard", relay.relayed_heard),
        ("latency", f"{relay.end_to_end_latency:.2f} s"),
    ])
    spreader = experiments.superspreader_experiment("superspreader")
    ddos = experiments.superspreader_experiment("ddos")
    _print_table("XEXT2: chord telemetry", [
        ("superspreader detected", spreader.attack_detected),
        ("DDoS victim detected", ddos.attack_detected),
    ])
    ultra = experiments.ultrasound_experiment()
    _print_table("XEXT3: ultrasound capacity", [
        ("audible", ultra.audible_capacity),
        ("extended", ultra.extended_capacity),
    ])
    modem = experiments.modem_experiment()
    _print_table("XEXT4: FSK modem", [
        ("airtime", f"{modem.airtime_s:.2f} s for {modem.payload_bytes} B"),
        ("decoded clean / noisy",
         f"{modem.decoded_ok} / {modem.decoded_ok_with_song}"),
    ])


def run_xext12(args: argparse.Namespace) -> None:
    result = experiments.resilience_experiment(
        smoke=getattr(args, "smoke", False)
    )
    _print_table("XEXT12a: MP frame loss — ARQ vs fire-and-forget", [
        (f"loss {point.loss_rate:.0%}",
         f"bare {point.no_arq_delivery:.1%}  "
         f"arq {point.arq_delivery:.1%}  "
         f"({point.retransmits} rtx, {point.expired} expired, "
         f"ack p̄ {point.mean_ack_latency_ms:.1f} ms)")
        for point in result.arq
    ])
    episode = result.failover
    latency = (f"{episode.failover_latency:.2f} s"
               if episode.failover_latency is not None else "never")
    failback = (f"{episode.failback_at:.2f} s"
                if episode.failback_at is not None else "never")
    _print_table("XEXT12b: speaker-death failover episode", [
        ("speaker outage", f"{episode.fault_start:.1f}–"
         f"{episode.fault_end:.1f} s"),
        ("first missed beat", f"{episode.first_missed_beat:.2f} s"),
        ("failover latency", f"{latency} "
         f"(budget {2 * episode.period:.2f} s)"),
        ("in-band coverage", f"{episode.inband_delivered} beats "
         f"at {episode.inband_delivery_rate:.0%}"),
        ("failback to acoustic", failback),
        ("final health", episode.final_state.name),
    ])
    _print_table("XEXT12c: dropout duty cycle vs coverage", [
        (f"fault rate {point.fault_rate:.0%}",
         f"acoustic {point.detection_accuracy:.1%}  "
         f"covered {point.covered_fraction:.1%}  "
         f"({point.failovers} failovers, "
         f"{point.inband_delivered} in-band beats)")
        for point in result.resilience
    ])


def run_xext13(args: argparse.Namespace) -> None:
    result = experiments.spectrum_agility_experiment(
        smoke=getattr(args, "smoke", False)
    )

    def _policy_row(point):
        extra = ""
        if point.policy == "agility":
            latency = (f"{point.migration_latency:.2f} s"
                       if point.migration_latency is not None else "never")
            extra = (f"  ({point.migrations_committed} migrations, "
                     f"epoch {point.plan_epoch}, latency {latency})")
        elif point.policy == "failover":
            extra = (f"  ({point.failovers} failovers, "
                     f"{point.health_transitions} health transitions)")
        return (point.policy,
                f"clean {point.clean_delivery:.1%}  "
                f"jammed {point.delivery:.1%}{extra}")

    headline = result.agility
    _print_table(
        f"XEXT13a: {headline.covered_fraction:.0%} of the allocation "
        f"jammed from t = {headline.interferer_start:.1f} s", [
            _policy_row(result.static),
            _policy_row(result.failover),
            _policy_row(result.agility),
        ])
    _print_table("XEXT13b: interference bandwidth vs delivery", [
        (f"covered {point.covered_fraction:.0%}",
         f"static {point.static_delivery:.1%}  "
         f"agility {point.agility_delivery:.1%}  "
         f"({point.migrations} migrations)")
        for point in result.sweep
    ])


def run_xext14(args: argparse.Namespace) -> None:
    result = experiments.infra_experiment(smoke=getattr(args, "smoke", False))
    wedged, storm = result.wedged, result.storm

    def _latency(value):
        return f"{value:.2f} s" if value is not None else "never"

    _print_table(
        f"XEXT14a: Pi wedged at t = {wedged.wedge_at:.1f} s, "
        f"restarts at t = {wedged.recover_at:.1f} s", [
            ("deadline-only",
             f"failover after {_latency(wedged.baseline_latency)}  "
             f"({wedged.baseline_expired} frames rode the full deadline)"),
            ("circuit breaker",
             f"failover after {_latency(wedged.breaker_latency)}  "
             f"({wedged.breaker_trips} trips, "
             f"{wedged.fast_failed} sends fast-failed, "
             f"{wedged.breaker_expired} expired)"),
            ("speedup",
             f"{wedged.speedup:.1f}x" if wedged.speedup else "n/a"),
            ("failback", f"acoustic again at {_latency(wedged.failback_at)}"
             if wedged.failback_at is not None else "never"),
        ])
    _print_table(
        f"XEXT14b: {storm.storm_sends} sends in "
        f"{storm.storm_duration:.1f} s against a crashed Pi "
        f"(bucket rate {storm.bucket_rate:.0f}/s, "
        f"burst {storm.bucket_burst:.0f})", [
            ("no admission",
             f"peak in-flight {storm.bare_peak_in_flight}"),
            ("token bucket",
             f"peak in-flight {storm.limited_peak_in_flight} "
             f"(bound {storm.admitted_bound:.0f})  "
             f"admitted {storm.arq_admitted}, shed {storm.arq_shed}"),
        ])


def run_xext15(args: argparse.Namespace) -> None:
    result = experiments.fleet_experiment(smoke=getattr(args, "smoke", False))
    _print_table(
        f"XEXT15: fleet of {result.num_rooms} rooms x "
        f"{result.switches_per_room} switches = {result.num_switches} "
        f"switches, ~{result.nominal_emissions_per_second:.0f} "
        f"emissions/s over {result.horizon:.1f} s "
        f"(host has {result.cpu_count} CPU core(s))", [
            ("delivery",
             f"{result.delivered}/{result.emissions} chirps "
             f"({result.delivery_ratio:.1%}), "
             f"{result.spurious_onsets} spurious onsets"),
            ("determinism",
             f"two serial runs identical: {result.determinism_ok}"),
        ])
    _print_table("XEXT15: shard count vs wall clock", [
        (f"{point.backend} x{point.num_shards}",
         f"{point.wall_s:6.2f} s  speedup {point.speedup:4.2f}x  "
         f"rtf {point.real_time_factor:6.1f} sim-s/s  "
         f"identical {point.identical}"
         + (f"  FAILURES {point.failures}" if point.failures else ""))
        for point in result.points
    ])
    path = result.export()
    print(f"\n   wrote {path}")


def run_xext16(args: argparse.Namespace) -> None:
    result = experiments.workload_experiment(
        smoke=getattr(args, "smoke", False)
    )
    _print_table(
        f"XEXT16: workload mixes over {result.mix_duration:.0f} s "
        f"({result.num_buckets} buckets, "
        f"{result.presence_period * 1000:.0f} ms presence grid)", [
            (point.name,
             f"{point.num_flows} flows, {point.packets} pkts  "
             f"hh P/R {point.heavy_hitter['precision']:.2f}/"
             f"{point.heavy_hitter['recall']:.2f}  "
             f"scan P/R {point.port_scan['precision']:.2f}/"
             f"{point.port_scan['recall']:.2f}  "
             f"({point.wall_s:.2f} s wall)")
            for point in result.mixes
        ])
    _print_table("XEXT16: vectorized driver scale", [
        (f"{point.num_flows:>9,} flows",
         f"{point.packets:>9,} pkts  build {point.build_s:5.2f} s  "
         f"run {point.run_s:5.2f} s  "
         f"{point.packets_per_wall_second:>9,.0f} pkt/s")
        for point in result.scale
    ])
    speedup = result.speedup
    _print_table("XEXT16: vectorized vs per-flow reference", [
        (f"{speedup.num_flows:,} flows",
         f"vector {speedup.vectorized_wall_s:.3f} s  "
         f"reference {speedup.reference_wall_s:.3f} s  "
         f"speedup {speedup.speedup:.1f}x  "
         f"counts identical: {speedup.counts_match}"),
    ])
    path = result.export()
    print(f"\n   wrote {path}")


def run_xext17(args: argparse.Namespace) -> None:
    result = experiments.chaos_experiment(smoke=getattr(args, "smoke", False))
    _print_table(
        f"XEXT17: chaos sweep over {result.num_rooms} rooms x "
        f"{result.switches_per_room} switches, {result.num_shards} "
        f"shards / {result.workers} workers "
        f"(host has {result.cpu_count} CPU core(s))", [
            ("serial reference", f"{result.serial_wall_s:6.2f} s wall"),
            ("supervised, no faults",
             f"{result.baseline_wall_s:6.2f} s wall  "
             f"identical {result.baseline_identical}"),
        ])
    _print_table("XEXT17: fault mix vs recovery", [
        (point.name,
         f"{point.wall_s:6.2f} s  overhead "
         f"{point.recovery_overhead:4.2f}x  "
         f"attempts {point.attempts_total:2d}  "
         f"crashes {point.crashes_detected}  "
         f"hedged {point.stragglers_hedged}  "
         f"resumed {point.rooms_resumed}  "
         f"rebuilds {point.pool_rebuilds}  "
         f"exact {point.identical}"
         + (f"  FAILURES {point.failures}" if point.failures else ""))
        for point in result.points
    ])
    _print_table("XEXT17: verdict", [
        ("exact recovery",
         f"all points bit-identical to fault-free serial reference: "
         f"{result.all_exact}"),
        ("worst overhead", f"{result.worst_overhead:.2f}x baseline"),
    ])
    path = result.export()
    print(f"\n   wrote {path}")


def run_obs(args: argparse.Namespace) -> None:
    """Run one experiment under ``repro.obs`` and print/export metrics."""
    from pathlib import Path

    from . import obs

    registry, tracer = obs.enable()
    try:
        EXPERIMENTS[args.experiment][1](args)
        print()
        print(registry.report())
        print()
        print(tracer.report())
        hits = registry.total("channel.memo_hits")
        misses = registry.total("channel.memo_misses")
        renders = hits + misses
        print("\n== derived")
        print(f"   render memo hit rate: "
              f"{hits / renders if renders else 0.0:.1%} "
              f"({hits:.0f}/{renders:.0f})")
        occupancy = registry.get("queue.occupancy")
        if isinstance(occupancy, obs.Histogram) and occupancy.count:
            print(f"   queue occupancy: p50={occupancy.p50:.0f} "
                  f"p90={occupancy.p90:.0f} max={occupancy.max:.0f} pkts "
                  f"({occupancy.count} samples)")
        path = Path(".benchmarks") / f"OBS_{args.experiment}.json"
        registry.export(path, extra={
            "experiment": args.experiment,
            "trace": tracer.snapshot(limit=200),
        })
        print(f"   wrote {path}")
    finally:
        obs.disable()


EXPERIMENTS: dict[str, tuple[str, Callable[[argparse.Namespace], None]]] = {
    "fig2a": ("FFT of simultaneous switches", run_fig2a),
    "fig2b": ("FFT processing-time CDF", run_fig2b),
    "fig3": ("port knocking", run_fig3),
    "fig4ab": ("heavy-hitter detection", run_fig4ab),
    "fig4cd": ("port-scan detection", run_fig4cd),
    "fig5ab": ("load balancing", run_fig5ab),
    "fig5cd": ("queue monitoring", run_fig5cd),
    "fig6": ("fan spectrograms", run_fig6),
    "fig7": ("fan failure detection", run_fig7),
    "xbase": ("baseline comparisons", run_xbase),
    "xext": ("extensions (relay, DDoS, ultrasound, modem)", run_xext),
    "xext12": ("resilience (fault injection, ARQ, failover)", run_xext12),
    "xext13": ("spectrum agility (interference replanning)", run_xext13),
    "xext14": ("infra hardening (breaker, admission)", run_xext14),
    "xext15": ("fleet scale-out (sharded rooms, merged observability)",
               run_xext15),
    "xext16": ("workload generator (mixes -> precision/recall, scale)",
               run_xext16),
    "xext17": ("chaos fleet (process faults, supervised exact recovery)",
               run_xext17),
}


def _render_knock():
    """The port-knocking melody plus surrounding traffic silence."""
    from .experiments.rigs import build_testbed
    from .net import Action
    from .core.apps import KnockConfig, KnockEmitter

    testbed = build_testbed("single", default_action=Action.drop())
    allocation = testbed.plan.allocate("s1", 3)
    config = KnockConfig([7001, 7002, 7003], 8080, allocation)
    KnockEmitter(testbed.topo.switches["s1"], testbed.agents["s1"], config)
    h1 = testbed.topo.hosts["h1"]
    for index, port in enumerate(config.knock_ports):
        testbed.sim.schedule_at(0.5 + index,
                                lambda p=port: h1.send_to("10.0.0.2", p))
    testbed.sim.run(4.0)
    return testbed.controller.microphone.record(testbed.channel, 0.0, 4.0)


def _render_chirps():
    """The Figure 5c/5d queue-band chirps: 500 -> 600 -> 700 -> 500 Hz."""
    from .experiments.rigs import build_testbed
    from .core.apps import BandToneMap, FIG5_BAND_FREQUENCIES, QueueChirper
    from .net import OnOffSource

    testbed = build_testbed("single")
    port = testbed.topo.port_towards("s1", "h2")
    tones = BandToneMap(FIG5_BAND_FREQUENCIES["low"],
                        FIG5_BAND_FREQUENCIES["medium"],
                        FIG5_BAND_FREQUENCIES["high"])
    QueueChirper(testbed.sim, testbed.topo.switches["s1"], port,
                 testbed.agents["s1"], tones)
    burst = OnOffSource(testbed.topo.hosts["h1"], "10.0.0.2", 80,
                        rate_pps=500, on_duration=1.5, off_duration=20.0,
                        start=1.0)
    burst.launch()
    testbed.sim.run(8.0)
    return testbed.controller.microphone.record(testbed.channel, 0.0, 8.0)


def _render_fan():
    """A datacenter server dying at t = 4 s (the §7 soundscape)."""
    from .fans import Server, datacenter_scene

    server = Server("target")
    server.fail_all(4.0)
    scene = datacenter_scene(duration=8.0, server=server)
    return scene.capture(0.0, 8.0)


def _render_song():
    """Ten seconds of the Cheap-Thrills-substitute interferer."""
    from .audio import SongNoise

    return SongNoise(seed=2018, level_db=60.0).render(10.0)


RENDERS: dict[str, tuple[str, Callable[[], object]]] = {
    "knock": ("the three-tone port-knock melody (§4)", _render_knock),
    "chirps": ("queue-band chirps 500/600/700 Hz (§6)", _render_chirps),
    "fan": ("a datacenter server dying at t=4 s (§7)", _render_fan),
    "song": ("the pop-song interferer used in Fig 4b/4d", _render_song),
}


def run_render(args: argparse.Namespace) -> None:
    from .audio.wav import write_wav

    _description, renderer = RENDERS[args.scene]
    signal = renderer()
    path = write_wav(signal, args.output)
    print(f"wrote {signal.duration:.1f} s of audio to {path} "
          f"({path.stat().st_size} bytes) — have a listen.")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Music-Defined Networking reproduction driver",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list runnable experiments")

    # The experiment flags, shared by ``run`` and ``obs``.
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--song", action="store_true",
                       help="add the pop-song interferer (fig4*)")
    flags.add_argument("--noise", action="store_true",
                       help="add background noise (fig2a)")
    flags.add_argument("--switches", type=int, default=5,
                       help="switch count for fig2a")
    flags.add_argument("--samples", type=int, default=1000,
                       help="sample count for fig2b")
    flags.add_argument("--smoke", action="store_true",
                       help="shrink sweeps for CI (xext12-xext17)")
    flags.add_argument(
        "--workload", choices=sorted(_workload_mix_names()), default=None,
        help="drive fig4*/fig5ab/xbase with a named seeded workload mix",
    )

    run_parser = subparsers.add_parser("run", parents=[flags],
                                       help="run experiments")
    run_parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which figure/study to regenerate",
    )

    render_parser = subparsers.add_parser(
        "render", help="write experiment audio to a WAV file"
    )
    render_parser.add_argument("scene", choices=sorted(RENDERS),
                               help="which soundscape to render")
    render_parser.add_argument("output", help="output .wav path")

    obs_parser = subparsers.add_parser(
        "obs", parents=[flags],
        help="run one experiment under the observability layer",
    )
    obs_parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS),
        help="which figure/study to run instrumented",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name, (description, _runner) in sorted(EXPERIMENTS.items()):
            print(f"  {name:<8} {description}")
        print("renderable soundscapes (repro render <scene> <out.wav>):")
        for name, (description, _renderer) in sorted(RENDERS.items()):
            print(f"  {name:<8} {description}")
        return 0
    if args.command == "render":
        run_render(args)
        return 0
    if args.command == "obs":
        run_obs(args)
        return 0
    targets = (sorted(EXPERIMENTS) if args.experiment == "all"
               else [args.experiment])
    for name in targets:
        EXPERIMENTS[name][1](args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
