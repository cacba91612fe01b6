"""Command-line driver: regenerate any paper figure from a shell.

::

    python -m repro list                 # what can be run
    python -m repro run fig3             # one experiment, printed report
    python -m repro run all              # everything (a few minutes)
    python -m repro run fig4ab --song    # variant flags where relevant
    python -m repro obs fig5ab           # one experiment, instrumented
    python -m repro render knock out.wav # write experiment audio you
                                         # can actually listen to

Every command is a thin driver over :mod:`repro.experiments`, and
``run``, ``run all`` and ``obs`` share one loop: call the experiment,
print each table of its result's ``rows()``, and write its
``record()`` to ``.benchmarks/BENCH_<name>.json`` through
:func:`repro.artifact.export_json` (``obs`` adds the metric and trace
reports and ``.benchmarks/OBS_<name>.json``).  A new experiment is one
``EXPERIMENTS`` entry whose runner returns a
:class:`repro.artifact.Result` with ``rows()``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable

from . import experiments as E
from .artifact import Result, export_json
from .net.workload import WORKLOAD_MIXES


def _print_table(title: str, rows: list) -> None:
    """Print tuple rows as aligned columns; ``str`` rows are notes."""
    print(f"\n== {title}")
    cells = [row for row in rows if isinstance(row, tuple)]
    widths = [max(len(str(row[col])) for row in cells)
              for col in range(len(cells[0]))] if cells else []
    for row in rows:
        if isinstance(row, str):
            print("   " + row)
            continue
        padded = [str(cell).ljust(width) for cell, width in zip(row, widths)]
        print("   " + "  ".join(padded).rstrip())


EXPERIMENTS: dict[str, tuple[str, Callable[[argparse.Namespace], Result]]] = {
    "fig2a": ("FFT of simultaneous switches", lambda args: E.multiswitch_fft(
        num_switches=args.switches,
        noise_level_db=55.0 if args.noise else None)),
    "fig2b": ("FFT processing-time CDF",
              lambda args: E.fft_latency_cdf(num_samples=args.samples)),
    "fig3": ("port knocking", lambda args: E.port_knocking_experiment()),
    "fig4ab": ("heavy-hitter detection",
               lambda args: E.heavy_hitter_experiment(
                   with_song=args.song, workload=args.workload,
                   num_flows=32 if args.workload else 10)),
    "fig4cd": ("port-scan detection", lambda args: E.port_scan_experiment(
        with_song=args.song, workload=args.workload)),
    "fig5ab": ("load balancing", lambda args: E.load_balancing_experiment(
        workload=args.workload)),
    "fig5cd": ("queue monitoring",
               lambda args: E.queue_monitor_experiment()),
    "fig6": ("fan spectrograms",
             lambda args: E.fan_spectrogram_experiment()),
    "fig7": ("fan failure detection", lambda args: E.fan_failure_rooms()),
    "xbase": ("baseline comparisons",
              lambda args: E.baseline_experiment(args.workload)),
    "xext": ("extensions (relay, DDoS, ultrasound, modem)",
             lambda args: E.extensions_experiment()),
    "xext12": ("resilience (fault injection, ARQ, failover)",
               lambda args: E.resilience_experiment(smoke=args.smoke)),
    "xext13": ("spectrum agility (interference replanning)",
               lambda args: E.spectrum_agility_experiment(smoke=args.smoke)),
    "xext14": ("infra hardening (breaker, admission)",
               lambda args: E.infra_experiment(smoke=args.smoke)),
    "xext15": ("fleet scale-out (sharded rooms, merged observability)",
               lambda args: E.fleet_experiment(smoke=args.smoke)),
    "xext16": ("workload generator (mixes -> precision/recall, scale)",
               lambda args: E.workload_experiment(smoke=args.smoke)),
    "xext17": ("chaos fleet (process faults, supervised exact recovery)",
               lambda args: E.chaos_experiment(smoke=args.smoke)),
}


def _write(name: str, payload: dict, args: argparse.Namespace) -> None:
    path = export_json(payload, Path(".benchmarks") / name, vars(args))
    print(f"\n   wrote {path}")


def run_experiment(name: str, args: argparse.Namespace) -> Result:
    """Run, print and record one experiment."""
    result = EXPERIMENTS[name][1](args)
    for title, rows in result.rows():
        _print_table(title, rows)
    _write(f"BENCH_{name}.json", result.record(), args)
    return result


def run_obs(args: argparse.Namespace) -> None:
    """Run one experiment under ``repro.obs`` and print/export metrics."""
    from . import obs

    registry, tracer = obs.enable()
    try:
        run_experiment(args.experiment, args)
        print(f"\n{registry.report()}\n\n{tracer.report()}")
        _write(f"OBS_{args.experiment}.json",
               registry.snapshot() | {"trace": tracer.snapshot(limit=200)},
               args)
    finally:
        obs.disable()


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
        "--workload", choices=sorted(WORKLOAD_MIXES), default=None,
        help="drive fig4*/fig5ab/xbase with a named seeded workload mix",
    )

    run_parser = subparsers.add_parser("run", parents=[flags],
                                       help="run experiments")
    run_parser.add_argument("experiment",
                            choices=sorted(EXPERIMENTS) + ["all"],
                            help="which figure/study to regenerate")

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
    obs_parser.add_argument("experiment", choices=sorted(EXPERIMENTS),
                            help="which figure/study to run instrumented")
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
    elif args.command == "obs":
        run_obs(args)
    else:
        for name in (sorted(EXPERIMENTS) if args.experiment == "all"
                     else [args.experiment]):
            run_experiment(name, args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
