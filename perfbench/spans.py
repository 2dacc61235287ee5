"""Spans and counters around votekit's layers, installed from outside.

Each listed function is wrapped at every module attribute and class that
holds it, so calls through `from x import f` copies are caught too.  A
span is (name, start, end, parent, command); spans stay in memory and
are written out when the run ends.  Nothing inside the package changes.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# layer -> functions as "module:attribute" or "module:Class.method"
LAYERS = {
    "enumeration.dfs": ["votekit.enumeration:iter_complete_chunks"],
    "enumeration.families": [
        "votekit.enumeration:shift_minimal_families",
        "votekit.enumeration:shift_maximal_losing_families",
    ],
    "enumeration.classify": ["votekit.enumeration:classify_weighted_chunk"],
    "exactlp.solve": ["votekit.exactlp:solve_nonneg_geq"],
    "games.certificate": [
        "votekit.enumeration:GameCatalog.certificate",
        "votekit.enumeration:weighted_certificate",
    ],
    "games.text": ["votekit.games:game_to_text"],
    "indices.batch": ["votekit.indices:batch_ssi_numerators", "votekit.indices:batch_swing_counts"],
    "indices.dp": ["votekit.indices:ssi_dp", "votekit.indices:pbi_dp"],
    "geometry.store_build": ["votekit.geometry:store_from_rows"],
    "geometry.nearest": ["votekit.geometry:VectorStore.nearest"],
    "geometry.gap_update": ["votekit.geometry:GapTracker.update"],
    "geometry.distinct": ["votekit.geometry:count_distinct"],
    "pipeline.cache_read": ["votekit.enumeration:read_catalog", "votekit.geometry:read_vectors"],
    "pipeline.cache_write": [
        "votekit.enumeration:write_catalog",
        "votekit.geometry:write_vectors",
        "votekit.enumeration:CatalogWriter.add_many",
        "votekit.enumeration:CatalogWriter.close",
        "votekit.geometry:VectorWriter.add",
        "votekit.geometry:VectorWriter.close",
    ],
    "inverse.heuristic": ["votekit.inverse:inverse_heuristic"],
    "inverse.eval": ["votekit.inverse:_QuotaScan.run"],
    "inverse.exact": ["votekit.inverse:inverse_exact"],
}

# Functions wrapped for counters only, without a span.
COUNTED = ["votekit.pipeline:ensure_catalog", "votekit.pipeline:ensure_vectors"]


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, command]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.command = -1
        self.missing: list[str] = []
        self._patches: list = []
        self._closed_writers: set[int] = set()

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.command])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self.stack.pop()

    def root(self, name: str, fn, *args, **kwargs):
        """Run one entry call as a new command with a root span."""
        self.command += 1
        self._closed_writers.clear()
        sid = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid)

    # -- counters --------------------------------------------------------------

    def _after(self, layer: str, attr: str, args, result) -> None:
        c = self.counts
        if layer == "exactlp.solve":
            c["exactlp.calls"] += 1
            c["exactlp.feasible"] += result is not None
        elif layer == "games.certificate":
            c["games.certificate_calls"] += 1
        elif layer == "geometry.nearest":
            c["geometry.nearest_calls"] += 1
            c["geometry.nearest_aborted"] += bool(result.aborted)
        elif layer == "inverse.heuristic":
            c["inverse.evaluations"] += result.evaluations
        elif layer == "inverse.eval":
            c["inverse.eval_calls"] += 1
        elif layer == "pipeline.cache_read":
            c["pipeline.cache_read_bytes"] += _size(args[0])
        elif layer == "pipeline.cache_write":
            # A writer's file is counted at its first close; write_catalog
            # goes through a writer, write_vectors does not.
            if attr == "close" and id(args[0]) not in self._closed_writers:
                self._closed_writers.add(id(args[0]))
                c["pipeline.cache_bytes"] += _size(args[0].path)
            elif attr == "write_vectors":
                c["pipeline.cache_bytes"] += _size(args[0])

    # -- installing --------------------------------------------------------------

    def _wrap(self, fn, layer: str | None, attr: str):
        tracer = self

        if layer == "enumeration.dfs":

            @functools.wraps(fn)
            def gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        sid = tracer.open(layer)
                        try:
                            chunk = next(it)
                        except StopIteration:
                            return
                        finally:
                            tracer.close(sid)
                        tracer.counts["enumeration.games"] += len(chunk)
                        yield chunk
                finally:
                    it.close()

            return gen

        if layer is None:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                path = _cache_file(attr, args, kwargs)
                hit = path is not None and path.exists()
                tracer.counts["pipeline.cache_hits" if hit else "pipeline.cache_misses"] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            sid = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            tracer._after(layer, attr, args, result)
            return result

        return timed

    def install(self) -> None:
        """Wrap every listed function wherever votekit holds it."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "votekit" and m]
        targets = [(layer, spec) for layer, specs in LAYERS.items() for spec in specs]
        targets += [(None, spec) for spec in COUNTED]
        for layer, spec in targets:
            modname, _, qual = spec.partition(":")
            mod = sys.modules.get(modname)
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(spec)
                continue
            wrapped = self._wrap(fn, layer, attr)
            if owner_name:
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        self._patches.append((m, name, fn))
                        setattr(m, name, wrapped)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches = []

    # -- output ------------------------------------------------------------------

    def dump(self, path: Path, meta: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            **meta,
            "fields": ["name", "start", "end", "parent", "command"],
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(payload))


def _cache_file(attr: str, args, kwargs) -> Path | None:
    """The cache file an ensure_* call looks for; None without a cache_dir."""
    from votekit import pipeline

    cache = args[2] if len(args) > 2 else kwargs.get("cache_dir")
    if cache is None:
        return None
    if attr == "ensure_catalog":
        return pipeline.catalog_path(cache, args[0], args[1])
    return pipeline.vector_path(cache, args[0].klass, args[0].n, args[1])


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_times(spans) -> tuple[dict, dict]:
    """(inclusive, self) seconds per span name.

    Inclusive time counts a span only when no ancestor has its name, so
    recursion is not counted twice.  Self time is a span's duration minus
    the part its children cover.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    incl: dict = defaultdict(float)
    own: dict = defaultdict(float)
    for i, (name, start, end, parent, _) in enumerate(spans):
        kids = [(spans[c][1], spans[c][2]) for c in children[i]]
        own[name] += (end - start) - covered(kids, start, end)
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            incl[name] += end - start
    return dict(incl), dict(own)


def span_cost(samples: int = 20000) -> float:
    """Seconds one wrapped call adds, measured on a no-op."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap(noop, "calibrate", "noop")
    best = float("inf")
    for _ in range(3):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(samples):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(samples):
            wrapped()
        best = min(best, (time.perf_counter() - t0 - bare) / samples)
    return max(best, 0.0)
