"""What the benchmark measures.  `python3 perfbench/spec.py > BENCHMARK.json`
regenerates the manifest at the repository root from these tables."""

from __future__ import annotations

import json

RUN_SECONDS = 25

WORKLOADS = [
    {
        "name": "catalog-cold",
        "why": "Cold tables --n 3..7, then wg6 --list: the catalog build every new user pays, "
        "LP-bound on the write side (classify) and the read side (certificates).",
    },
    {
        "name": "query-warm",
        "why": "Warm tables, omega --n 7 and 16 exact n=7 inverses: kd-tree and cache reads, almost "
        "no LP. Counts the exact-inverse relabelling defect: baseline error_rate 8/18 = 0.44 (7/18 on some seeds).",
    },
    {
        "name": "inverse-heuristic",
        "why": "Heuristic inverse on the n=7 L1 extremal games padded to n=9..11 and two 27-member "
        "council targets: the only path through the quota scan and the weight-space DP.",
    },
    {
        "name": "stream-n8",
        "why": "build_big_tables(workers=1) over the first 32,768 n=8 games, stopped from progress: "
        "9-variable LPs, n=8 families and the streaming catalog and vector writers.",
    },
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

# The workload-specific figures printed above the result line, with units.
NAMED_UNITS = {
    "build_s": "s",
    "list_s": "s",
    "tables_s": "s",
    "omega_s": "s",
    "exact_ms": "ms",
    "padded_s": "s",
    "council_s": "s",
    "padded_hits": "count",
    "padded_excess": "distance",
    "slice_s": "s",
    "n8_projected_h": "h",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}

# name, unit, better, the end-to-end figures it should move
PER_LAYER = [
    ("enumeration.dfs_s", "s", "lower", "build_s on catalog-cold, n8_projected_h"),
    ("enumeration.games", "count", "higher", "exact count of games enumerated"),
    ("enumeration.families_s", "s", "lower", "n8_projected_h; list_s through certificate"),
    ("enumeration.classify_s", "s", "lower", "build_s, n8_projected_h"),
    ("exactlp.solve_s", "s", "lower", "build_s, list_s, n8_projected_h"),
    ("exactlp.calls", "count", "lower", "build_s, list_s"),
    ("exactlp.feasible_ratio", "ratio", "higher", "build_s"),
    ("games.certificate_s", "s", "lower", "list_s; a small share of exact_ms"),
    ("games.certificate_calls", "count", "lower", "list_s"),
    ("games.text_s", "s", "lower", "list_s"),
    ("cli.self_s", "s", "lower", "list_s, every CLI command"),
    ("pipeline.stream_self_s", "s", "lower", "n8_projected_h"),
    ("indices.batch_s", "s", "lower", "build_s, n8_projected_h"),
    ("indices.dp_s", "s", "lower", "council_s"),
    ("geometry.store_build_s", "s", "lower", "omega_s, exact_ms"),
    ("geometry.nearest_s", "s", "lower", "omega_s, exact_ms"),
    ("geometry.nearest_calls", "count", "lower", "omega_s"),
    ("geometry.nearest_aborted_ratio", "ratio", "higher", "omega_s"),
    ("geometry.gap_update_s", "s", "lower", "omega_s"),
    ("geometry.distinct_s", "s", "lower", "tables_s, build_s"),
    ("pipeline.cache_read_s", "s", "lower", "tables_s, exact_ms, list_s"),
    ("pipeline.cache_read_bytes", "B", "lower", "tables_s, exact_ms, list_s"),
    ("pipeline.cache_write_s", "s", "lower", "build_s, n8_projected_h"),
    ("pipeline.cache_bytes", "B", "lower", "build_s, n8_projected_h"),
    ("pipeline.cache_hits", "count", "higher", "tables_s"),
    ("pipeline.cache_misses", "count", "lower", "build_s"),
    ("inverse.heuristic_s", "s", "lower", "padded_s, council_s"),
    ("inverse.evaluations", "count", "lower", "padded_s, council_s, padded_excess"),
    ("inverse.eval_ms", "ms", "lower", "padded_s, council_s"),
    ("inverse.exact_s", "s", "lower", "exact_ms"),
    ("trace.pass_s", "s", "lower", "pass_s with tracing on; the difference is the overhead"),
    ("trace.overhead_est_s", "s", "lower", "spans times the calibrated cost of one wrapped call"),
    ("trace.spans", "count", "lower", "spans recorded per pass"),
]

# Layers whose self time is reported beside the inclusive time.
SELF_TIMED = [
    "enumeration.dfs",
    "enumeration.families",
    "enumeration.classify",
    "exactlp.solve",
    "games.certificate",
    "games.text",
    "indices.batch",
    "indices.dp",
    "geometry.store_build",
    "geometry.nearest",
    "geometry.gap_update",
    "geometry.distinct",
    "pipeline.cache_read",
    "pipeline.cache_write",
    "inverse.heuristic",
    "inverse.exact",
]


def per_layer_names() -> list[tuple[str, str, str, str]]:
    out = list(PER_LAYER)
    for layer in SELF_TIMED:
        out.append((f"{layer}_self_s", "s", "lower", f"self time of {layer}"))
    return out


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in per_layer_names()
        ],
    }


if __name__ == "__main__":
    print(json.dumps(manifest(), indent=2))
