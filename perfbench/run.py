"""votekit benchmark: one workload per run, outputs checked, metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a repository checkout; it imports votekit from
src/ and works in .perfbench-work/.  Set-up runs seven times and its
median is setup_s; then whole passes of the workload repeat while
another is likely to end within S seconds (at least one runs).  Every
time is in seconds scaled to a nominal machine speed (speed.py); wall
seconds are printed too.
With --trace 1 the passes run with spans around every layer (spans.py)
and the per-layer metrics are printed instead of the end-to-end ones.
The last line of standard output is the result: {"correct",
"attempted", "failed", "metrics"}.
`correct` is false when any output fails a check other than the one
documented defect that checks.KnownDefect describes; every failed check
counts in `failed`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 7


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def layer_metrics(tracer, passes: int, pass_times: list[float]) -> dict:
    import spec
    from spans import LAYERS, layer_times, span_cost

    incl, own = layer_times(tracer.spans)
    c = tracer.counts
    values = {f"{layer}_s": incl.get(layer, 0.0) for layer in LAYERS}
    values.update({f"{layer}_self_s": own.get(layer, 0.0) for layer in LAYERS})
    values["cli.self_s"] = own.get("cli", 0.0)
    values["pipeline.stream_self_s"] = own.get("pipeline.stream", 0.0)
    for name in ("enumeration.games", "exactlp.calls", "games.certificate_calls",
                 "geometry.nearest_calls", "pipeline.cache_read_bytes", "pipeline.cache_bytes",
                 "pipeline.cache_hits", "pipeline.cache_misses", "inverse.evaluations"):
        values[name] = c[name]
    values["trace.spans"] = len(tracer.spans)
    values["trace.overhead_est_s"] = len(tracer.spans) * span_cost()
    # per pass, so runs with different pass counts compare
    values = {k: v / passes for k, v in values.items()}
    values["exactlp.feasible_ratio"] = c["exactlp.feasible"] / c["exactlp.calls"] if c["exactlp.calls"] else 0.0
    calls = c["geometry.nearest_calls"]
    values["geometry.nearest_aborted_ratio"] = c["geometry.nearest_aborted"] / calls if calls else 0.0
    evals = c["inverse.eval_calls"]
    values["inverse.eval_ms"] = 1000 * incl.get("inverse.eval", 0.0) / evals if evals else 0.0
    values["trace.pass_s"] = statistics.median(pass_times)
    out = {}
    for name, unit, _, maps_to in spec.per_layer_names():
        out[name] = {"value": values[name], "unit": unit}
        print(f"  {name:34} {values[name]:>14.6g} {unit:6} -> {maps_to}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "votekit" / "__init__.py").is_file():
        print(f"perfbench: no votekit sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spec
    import speed
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work"
    run_dir = workloads.fresh_dir(work / f"run-{os.getpid()}")
    run = workloads.Run(ROOT, work, args.seed)
    wl = workloads.WORKLOADS[args.workload]()
    try:
        wl.prepare(run)
        setups = []
        for _ in range(SETUPS):
            dt, _, _ = run.scaler.timed(wl.setup, run, run_dir / "w")
            setups.append(workloads.time_import(ROOT) + dt)

        tracer = None
        if args.trace:
            import votekit.cli  # noqa: F401  every module loaded before wrapping
            import votekit.pipeline  # noqa: F401

            tracer = Tracer()
            tracer.install()
            run.tracer = tracer
            for spec_name in tracer.missing:
                print(f"perfbench: cannot trace {spec_name}; its metrics read 0", file=sys.stderr)
        named = []
        pass_times = []
        wall_times = []
        took = []
        start = time.perf_counter()
        while True:
            timed, wall = run.timed_s, run.wall_s
            named.append(wl.one_pass(run, run_dir / "w"))
            pass_times.append(run.timed_s - timed)
            wall_times.append(run.wall_s - wall)
            took.append(time.perf_counter() - start - sum(took))
            if time.perf_counter() - start + statistics.median(took) > args.seconds:
                break
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(
                work / f"trace-{args.workload}-{args.seed}.json",
                {"workload": args.workload, "seed": args.seed, "passes": len(named)},
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for msg in run.unexpected[:10]:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    if run.known:
        print(f"perfbench: {len(run.known)} known-defect failures, e.g. {run.known[0]}", file=sys.stderr)

    summary = {k: statistics.median(p[k] for p in named) for k in named[0]}
    summary.update(
        setup_s=statistics.median(setups),
        peak_rss_mb=peak_rss_mb(),
        error_rate=run.failed / run.attempted,
    )
    print(f"named metrics, median of {len(named)} pass(es):")
    for k, v in summary.items():
        print(f"  {k:16} {v:>14.6g} {spec.NAMED_UNITS[k]}")
    print(f"pass: {statistics.median(pass_times):.4g} s scaled, {statistics.median(wall_times):.4g} s wall; "
          f"reference loop median {statistics.median(run.scaler.loops):.4g} s over {len(run.scaler.loops)} "
          f"(nominal {speed.REFERENCE_S} s)")
    if tracer is not None:
        metrics = layer_metrics(tracer, len(named), pass_times)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(pass_times),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec.END_TO_END}
    print(json.dumps({
        "correct": not run.unexpected,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
