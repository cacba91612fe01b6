"""Run one benchmark workload in this process; print its result as JSON.

``run.py`` starts one of these per workload and mode:

* ``run``: one small untimed warm-up rep, then timed reps;
* ``trace``: the same with every layer boundary wrapped in spans;
* ``setup``: stop once the first timed rep's inputs are built, which
  yields one cold set-up sample (imports, warm-up and input build).

The last line of standard output is the JSON result.
"""

import time

STARTED = time.perf_counter()  # set-up time counts the imports below

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"repro imported from {repro.__file__}, not from {SRC}")

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Spans kept in the exported Chrome trace (the first rep, in order).
TRACE_EXPORT_LIMIT = 100_000


def peak_rss_mb() -> float:
    """Largest resident set of this process or any finished child
    (``ru_maxrss`` is in KiB on Linux)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "trace", "setup"),
                        required=True)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--seconds", type=float,
                        help="run reps until this much time has passed")
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    params = workload.full if args.size == "full" else workload.small
    import_s = time.perf_counter() - STARTED
    tracer = None
    if args.mode == "trace":
        tracer = spans.Tracer()
        spans.instrument(tracer)

    warm = workload(args.seed, **workload.small)
    warm.run()
    warm.result()

    target_reps = workload.reps if args.size == "full" else 2
    reps, results, per_rep, first_spans = [], [], [], None
    loop_start = time.perf_counter()
    while True:
        rep_span = tracer.open_rep() if tracer else None
        t0 = time.perf_counter()
        rig = workload(args.seed, **params)
        t1 = time.perf_counter()
        if not reps:
            setup_s = t1 - STARTED
            if args.mode == "setup":
                print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
                return
        rig.run()
        t2 = time.perf_counter()
        if tracer:
            # Reduce each rep's spans to metrics at once; only the first
            # rep's spans stay in memory, for the exported trace.
            rep_spans = tracer.close_rep(rep_span)
            per_rep.append(spans.rep_layer_metrics(rep_spans))
            if first_spans is None:
                first_spans = rep_spans
        result = rig.result()
        results.append(result)
        reps.append({
            "build_s": t1 - t0,
            "wall_s": t2 - t1,
            "sim_rate": rig.sim_seconds / (t2 - t1),
            "digest": result.digest,
            "ok": all(result.checks.values())
                  and result.digest == results[0].digest,
        })
        if args.seconds is not None:
            if time.perf_counter() - loop_start >= args.seconds:
                break
        elif len(reps) >= target_reps:
            break

    first = results[0]
    checks = {"rep_digests_equal": all(r.digest == first.digest
                                       for r in results)}
    for name in first.checks:
        checks[name] = all(r.checks[name] for r in results)
    record = {
        "workload": args.workload,
        "params": {"seed": args.seed, **params},
        "import_s": import_s,
        "setup_s": setup_s,
        "reps": reps,
        "outcome": first.outcome,
        "checks": checks,
        "peak_rss_mb": peak_rss_mb(),
        "numpy": numpy.__version__,
    }
    if tracer:
        layers = dict.fromkeys(spans.layer_metric_units(), 0.0)
        for name in per_rep[0][0]:
            layers[name] = statistics.median(m[name] for m, _sites in per_rep)
        for name in first.counts:
            layers[name] = statistics.median(r.counts[name] for r in results)
        sites: dict[str, float] = {}
        for _metrics, rep_sites in per_rep:
            for site, ms in rep_sites.items():
                sites[site] = sites.get(site, 0.0) + ms / len(per_rep)
        record["layers"] = layers
        record["event_sites_ms"] = dict(
            sorted(sites.items(), key=lambda item: -item[1])
        )
        if args.trace_out:
            spans.write_chrome_trace(args.trace_out, spans.chrome_trace(
                args.workload, first_spans, TRACE_EXPORT_LIMIT
            ))
    print(json.dumps(record))


if __name__ == "__main__":
    main()
