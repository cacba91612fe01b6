"""The repository benchmark: four workloads, end-to-end metrics, and an
outside-in per-layer trace.

Usage (from the repository root)::

    python bench/run.py                        # all workloads, untraced
    python bench/run.py --workloads lb-packets --seed 12 --trace
    python bench/run.py --repeat 2 --trace --out result.json
    python bench/run.py --compare parent.json change.json

Each workload runs in its own child process (``bench/child.py``), one at
a time; a child imports ``repro`` from this checkout's ``src/`` only.
End-to-end metrics come from untraced runs; ``--trace`` adds a separate
traced run for the per-layer metrics and writes a Chrome trace to
``bench/out/trace-<workload>.json``.  With one workload selected, the
last line printed is a JSON summary: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end untraced, per-layer traced).

Exits non-zero when an output check fails, a child fails, or
``--compare`` finds a metric that got worse.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import compare
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: Workloads in run order (each is defined in ``workloads.py``).
WORKLOADS = ("room-dense", "fleet-pool", "lb-packets", "telemetry-flows")

#: Fresh processes that each time one cold set-up, besides the run
#: child's own; ``setup_s`` is the median over all of them.
SETUP_PROBES = 4

#: Wall-clock cap on one child process.
CHILD_TIMEOUT_S = 150

#: One BLAS thread (OpenBLAS here is built for 64 threads) and a fixed
#: hash seed, so children do the same work on every run.
CHILD_ENV = {
    **os.environ,
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class ChildFailed(RuntimeError):
    """A child process exited non-zero or timed out."""


def _reap_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group, and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(workload: str, mode: str, args) -> dict:
    """Run ``child.py`` in its own process group; return its JSON."""
    command = [sys.executable, str(BENCH / "child.py"), workload,
               "--seed", str(args.seed), "--mode", mode,
               "--size", "small" if args.smoke else "full"]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if mode == "trace":
        command += ["--trace-out", str(OUT / f"trace-{workload}.json")]
    child = subprocess.Popen(command, cwd=ROOT, env=CHILD_ENV,
                             stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} ({mode}) exceeded "
                          f"{CHILD_TIMEOUT_S} s") from None
    finally:
        _reap_group(child.pid)
        child.wait()
    if child.returncode != 0 or not stdout.strip():
        raise ChildFailed(f"{workload} ({mode}) exited {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def untraced_record(workload: str, args) -> dict:
    """One untraced run plus the set-up probes, as samples per metric."""
    run = run_child(workload, "run", args)
    probes = [run_child(workload, "setup", args) for _ in range(SETUP_PROBES)]
    samples = {
        "sim_rate": [rep["sim_rate"] for rep in run["reps"]],
        "setup_s": [run["setup_s"]] + [probe["setup_s"] for probe in probes],
        "peak_rss_mb": [run["peak_rss_mb"]],
    }
    samples.update({name: [value] for name, value in run["outcome"].items()})
    return {
        "params": run["params"],
        "samples": samples,
        "digest": run["reps"][0]["digest"],
        "checks": run["checks"],
        "reps": run["reps"],
        "import_s": [run["import_s"]] + [p["import_s"] for p in probes],
        "build_s": [rep["build_s"] for rep in run["reps"]],
        "numpy": run["numpy"],
    }


def traced_record(workload: str, untraced: dict, args) -> dict:
    """One traced run, checked against the untraced digest."""
    run = run_child(workload, "trace", args)
    for rep in run["reps"]:
        rep["ok"] = rep["ok"] and rep["digest"] == untraced["digest"]
    checks = dict(run["checks"])
    checks["traced_digest_matches"] = run["reps"][0]["digest"] == untraced["digest"]
    rates = [rep["sim_rate"] for rep in run["reps"]]
    layers = run["layers"]
    layers["trace.overhead"] = (statistics.median(untraced["samples"]["sim_rate"])
                                / statistics.median(rates) - 1.0)
    return {
        "params": run["params"],
        "samples": {"sim_rate": rates},
        "digest": run["reps"][0]["digest"],
        "checks": checks,
        "reps": run["reps"],
        "layers": layers,
        "event_sites_ms": run["event_sites_ms"],
    }


def git_state() -> dict:
    """The checkout's commit and whether it has local changes; a
    checkout that is not a git repository reports ``unknown``."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}

    def git(*argv):
        return subprocess.run(["git", *argv], cwd=ROOT, env=env, text=True,
                              capture_output=True, check=True).stdout.strip()

    try:
        return {"sha": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.CalledProcessError):
        return {"sha": "unknown", "dirty": None}


def host_state() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
    }


def print_untraced(workload: str, record: dict, specs: dict) -> None:
    for name, values in record["samples"].items():
        spec = specs[name]
        line = (f"  {workload:<16} {name:<18} {statistics.median(values):>12.5g} "
                f"{spec['unit']:<16} n={len(values)}")
        if len(values) > 1:
            line += f"  iqr={compare.spread(values) / statistics.median(values):.1%}"
        print(line)


def print_traced(workload: str, record: dict) -> None:
    layers = record["layers"]
    print(f"  {workload}: {'span':<20} {'calls':>9} {'self_ms':>10} {'share':>7}")
    for span in spans.SPANS:
        print(f"  {'':<{len(workload)}}  {span:<20} "
              f"{layers[span + '.calls']:>9.0f} "
              f"{layers[span + '.self_ms']:>10.2f} "
              f"{layers[span + '.share']:>7.1%}")
    units = spans.layer_metric_units()
    for name, value in layers.items():
        if not name.endswith((".calls", ".self_ms", ".share")) or \
                name == "residual.share":
            print(f"  {'':<{len(workload)}}  {name:<30} {value:>12.5g} "
                  f"{units[name][0]}")
    if layers["residual.share"] >= 0.10:
        print(f"  {'':<{len(workload)}}  residual >= 10%; top sim.event sites:")
        for site, ms in list(record["event_sites_ms"].items())[:5]:
            print(f"  {'':<{len(workload)}}    {site:<40} {ms:>10.2f} ms")


def failed_checks(record: dict) -> list[str]:
    return [name for name, ok in record["checks"].items() if not ok]


def summary(records: list[dict], traced: dict | None,
            benchmark: dict) -> dict:
    """The one-line JSON result for a single-workload invocation; a rep
    is ``ok`` when its output checks pass and its digest matches."""
    reps = [rep for record in records for rep in record["reps"]]
    reps += traced["reps"] if traced else []
    if traced:
        units = spans.layer_metric_units()
        metrics = {name: {"value": traced["layers"][name], "unit": units[name][0]}
                   for name in (m["name"] for m in benchmark["per_layer"])}
    else:
        metrics = {
            m["name"]: {"value": statistics.median(
                value for record in records
                for value in record["samples"][m["name"]]), "unit": m["unit"]}
            for m in benchmark["end_to_end"]
        }
    return {"correct": all(rep["ok"] for rep in reps),
            "attempted": len(reps),
            "failed": sum(not rep["ok"] for rep in reps),
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", "--workload", nargs="+",
                        choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        help="time each workload for this long (default: "
                             "its fixed rep count)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add a traced run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced sets to run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for tests")
    parser.add_argument("--out", type=Path, help="write the result JSON here")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("PARENT", "CHANGE"))
    args = parser.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        a, b = (json.loads(path.read_text()) for path in args.compare)
        lines, worse = compare.compare(a, b, benchmark)
        print("\n".join(lines))
        return 1 if worse else 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    state = {**git_state(), **host_state(), "seed": args.seed,
             "smoke": args.smoke, "seconds": args.seconds}
    nproc = os.cpu_count() or 1
    if state["loadavg"][0] > 0.5 * nproc:
        print(f"warning: 1-minute loadavg {state['loadavg'][0]:.2f} exceeds "
              f"half of {nproc} CPUs; timings will be slow", file=sys.stderr)

    specs = compare.metric_specs(benchmark)
    sets = []
    try:
        for index in range(args.repeat):
            print(f"== untraced set {index + 1}/{args.repeat}, seed {args.seed}")
            records = {}
            for workload in args.workloads:
                records[workload] = untraced_record(workload, args)
                print_untraced(workload, records[workload], specs)
            sets.append({"traced": False, "workloads": records})
        if args.trace:
            print("== traced set")
            records = {}
            for workload in args.workloads:
                records[workload] = traced_record(
                    workload, sets[0]["workloads"][workload], args)
                print_traced(workload, records[workload])
            sets.append({"traced": True, "workloads": records})
    except ChildFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    state["loadavg_after"] = list(os.getloadavg())
    state["numpy"] = sets[0]["workloads"][args.workloads[0]]["numpy"]
    result = {"meta": state, "sets": sets}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1) + "\n")

    failures = [(workload, name) for one_set in sets
                for workload, record in one_set["workloads"].items()
                for name in failed_checks(record)]
    for workload, name in failures:
        print(f"check failed: {workload} {name}", file=sys.stderr)
    if len(args.workloads) == 1:
        workload = args.workloads[0]
        untraced = [s["workloads"][workload] for s in sets if not s["traced"]]
        traced = sets[-1]["workloads"][workload] if args.trace else None
        print(json.dumps(summary(untraced, traced, benchmark)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
