"""The four workloads.  Each has an untimed prepare (derived inputs and
the checkers' reference data), a timed set-up and a pass; run.py repeats
the set-up, with a fresh interpreter's import of the CLI, several times
and the pass until the run's seconds are spent.

Inputs come from the workload seed only; votekit sees nothing but the
generated argv and files.  Outputs are checked by checks.py, never by
votekit's own code.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks
from checks import CheckFailed, KnownDefect
from speed import REFERENCE_S, Scaler

KINDS = ("ssi", "pbi")
METRICS = ("l1", "linf")


class Run:
    """One benchmark run: where it works, what it has seen so far."""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.seed = seed
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.known: list[str] = []
        self.timed_s = 0.0
        self.wall_s = 0.0
        self.scaler = Scaler()

    def fail(self, msg: str) -> None:
        self.failed += 1
        self.unexpected.append(msg)

    def check(self, fn, *args) -> object:
        """Run one output check; a failed check counts against the run."""
        try:
            return fn(*args)
        except KnownDefect as exc:
            self.failed += 1
            self.known.append(str(exc))
        except (CheckFailed, KeyError, ValueError, TypeError) as exc:
            self.fail(f"{fn.__name__}: {exc!r}")
        return None

    def call(self, label: str, fn, *args, **kwargs):
        """Time one entry call.  Returns (seconds, result or None); the
        seconds are scaled as speed.py says."""
        self.attempted += 1
        if self.tracer is not None:
            fn, args = self.tracer.root, (label, fn, *args)
        try:
            dt, wall, result = self.scaler.timed(fn, *args, **kwargs)
        except (Exception, SystemExit) as exc:  # a crash in the program is a failed operation
            (dt, wall), result = self.scaler.last, None
            self.fail(f"{label}: raised {exc!r}")
        self.timed_s += dt
        self.wall_s += wall
        return dt, result

    def cli(self, argv: list[str]):
        """One `votekit` command in-process with --format json.  Returns
        (seconds, results dict or None)."""
        from votekit import cli

        buf = io.StringIO()
        with redirect_stdout(buf):
            dt, rc = self.call("cli", cli.main, [*argv, "--format", "json"])
        if rc is None:
            return dt, None
        if rc != 0:
            self.fail(f"votekit {' '.join(argv)}: exit {rc}")
            return dt, None
        try:
            return dt, json.loads(buf.getvalue())["results"]
        except (ValueError, KeyError) as exc:
            self.fail(f"votekit {' '.join(argv)}: unreadable output {exc!r}")
            return dt, None


_IMPORT = """\
import statistics, sys, time
import votekit.cli
done = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import speed
print(done, statistics.median([speed.reference_loop() for _ in range(3)]))
"""


def time_import(root: Path) -> float:
    """A fresh interpreter importing the CLI, what every command pays:
    seconds from the start of the process to the end of the import,
    scaled by reference loops the new process runs on its own core."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    here = Path(__file__).resolve().parent
    t0 = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
    out = subprocess.run([sys.executable, "-c", _IMPORT, str(here)], env=env, check=True,
                         capture_output=True, text=True).stdout
    done, loop = map(float, out.split())
    return (done - t0) * REFERENCE_S / loop


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# Inputs derived once per checkout: the warm n <= 7 cache, omega at n = 7
# and the weighted n = 7 vectors recomputed from the catalog file
# ---------------------------------------------------------------------------


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for d in (root / "src" / "votekit", Path(__file__).resolve().parent):
        for p in sorted(d.glob("*.py")):
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def derived(run: Run) -> Path:
    """Build (or reuse) the checkout's derived inputs and return their
    directory.  The build is a one-off per source tree, like compiling;
    catalog-cold times the same build on every run."""
    from votekit import certified

    final = run.work / f"derived-{source_digest(run.root)}"
    if (final / "ok").exists():
        return final
    tmp = fresh_dir(run.work / f"derived.tmp{os.getpid()}")
    cache = tmp / "cache"
    scratch = Run(run.root, run.work, run.seed)
    _, tables = scratch.cli(["tables", "--n", "3..7", "--cache-dir", str(cache)])
    if tables is not None:
        scratch.check(checks.check_tables, tables, range(3, 8), certified)
    _, omega = scratch.cli(["omega", "--n", "7", "--cache-dir", str(cache)])
    if omega is not None:
        scratch.check(checks.check_omega, omega, 7, certified)
        (tmp / "omega7.json").write_text(json.dumps(omega))
    n, families = checks.read_catalog_families(cache / "wg7.cat")
    tables7 = checks.complete_tables(n, families)
    arrays = {}
    for kind in KINDS:
        nums, dens = checks.table_power(tables7, n, kind)
        expected = certified.DISTINCT_VECTOR_COUNTS["wg", kind][7]
        if checks.distinct_rows(nums, dens) != expected:
            scratch.fail(f"recomputed wg7 {kind} vectors are not {expected} distinct")
        arrays[f"{kind}_nums"], arrays[f"{kind}_dens"] = nums, dens
    np.savez(tmp / "wg7_vectors.npz", **arrays)
    if scratch.failed:
        run.attempted += scratch.attempted
        run.failed += scratch.failed
        run.unexpected += scratch.unexpected
        return tmp
    (tmp / "ok").write_text("")
    try:
        os.rename(tmp, final)
    except OSError:  # another run finished first
        shutil.rmtree(tmp, ignore_errors=True)
    return final


# ---------------------------------------------------------------------------
# catalog-cold
# ---------------------------------------------------------------------------


class CatalogCold:
    """Cold `tables --n 3..7` on an empty cache, then three warm
    `enumerate --class wg --n 6 --list`.  The wg7 listing (about a minute)
    does not fit a run, so the listing path runs at n = 6."""

    LISTINGS = 3

    def prepare(self, run: Run) -> None:
        pass

    def setup(self, run: Run, where: Path) -> None:
        fresh_dir(where)

    def one_pass(self, run: Run, where: Path) -> dict:
        from votekit import certified

        cache = fresh_dir(where / "cache")
        build_s, res = run.cli(["tables", "--n", "3..7", "--cache-dir", str(cache)])
        if res is not None:
            run.check(checks.check_tables, res, range(3, 8), certified)
        lists = []
        for _ in range(self.LISTINGS):
            dt, res = run.cli(["enumerate", "--class", "wg", "--n", "6", "--list", "--cache-dir", str(cache)])
            lists.append(dt)
            if res is not None:
                run.check(checks.check_listing, res, 6, certified)
        return {"build_s": build_s, "list_s": float(np.median(lists))}


# ---------------------------------------------------------------------------
# query-warm
# ---------------------------------------------------------------------------


def exact_targets(seed: int) -> list[dict]:
    """16 n = 7 targets on the 1/1000 grid, four per (index, metric); in
    each group two are strongest-first and two in a seeded voter order."""
    rng = random.Random(f"query-warm:{seed}")
    out = []
    for kind in KINDS:
        for metric in METRICS:
            for j in range(4):
                cuts = sorted(rng.sample(range(1, 1000), 6))
                parts = [b - a for a, b in zip([0, *cuts], [*cuts, 1000])]
                parts.sort(reverse=True)
                if j >= 2:
                    while parts == sorted(parts, reverse=True):
                        rng.shuffle(parts)
                out.append({"kind": kind, "metric": metric, "values": [Fraction(p, 1000) for p in parts]})
    return out


def write_target(path: Path, kind: str, values) -> None:
    path.write_text(f"n={len(values)} index={kind}\n" + " ".join(str(v) for v in values) + "\n")


class QueryWarm:
    """Warm `tables --n 3..7`, `omega --n 7` and 16 `inverse --mode exact`."""

    def prepare(self, run: Run) -> None:
        self.src = derived(run)
        self.targets = exact_targets(run.seed)
        with np.load(self.src / "wg7_vectors.npz") as z:
            self.vectors = {k: (z[f"{k}_nums"], z[f"{k}_dens"]) for k in KINDS}

    def setup(self, run: Run, where: Path) -> None:
        fresh_dir(where)
        shutil.copytree(self.src / "cache", where / "cache")
        for i, t in enumerate(self.targets):
            write_target(where / f"target{i}.txt", t["kind"], t["values"])

    def one_pass(self, run: Run, where: Path) -> dict:
        from votekit import certified

        cache = str(where / "cache")
        tables_s, res = run.cli(["tables", "--n", "3..7", "--cache-dir", cache])
        if res is not None:
            run.check(checks.check_tables, res, range(3, 8), certified)
        omega_s, res = run.cli(["omega", "--n", "7", "--cache-dir", cache])
        if res is not None:
            run.check(checks.check_omega, res, 7, certified)
        exact = []
        for i, t in enumerate(self.targets):
            dt, res = run.cli(
                ["inverse", "--target", str(where / f"target{i}.txt"), "--mode", "exact",
                 "--index", t["kind"], "--metric", t["metric"], "--cache-dir", cache]
            )
            exact.append(dt)
            if res is not None:
                run.check(checks.check_exact, res, t["values"], t["metric"], self.vectors[t["kind"]])
        return {"tables_s": tables_s, "omega_s": omega_s, "exact_ms": 1000 * float(np.median(exact))}


# ---------------------------------------------------------------------------
# inverse-heuristic
# ---------------------------------------------------------------------------

PADDED_NS = (9, 10, 11)
# criterion 9's tolerances around certified.PADDED_SEARCH_REFERENCE
PADDED_TOL = {"ssi": Fraction(1, 10**4), "pbi": Fraction(5, 10**5)}


def council_populations(seed: int) -> list[int]:
    """27 populations whose shares on the 1/10**4 grid (rounded half up,
    as the council rule does) sum to a multiple of 20 and share no
    factor.  The 65% quota then sits on the same 1/10**4 grid for every
    seed, so the weight-space DP has the same size for every seed."""
    rng = random.Random(f"council:{seed}")
    while True:
        pops = [int(10 ** rng.uniform(5.3, 7.9)) for _ in range(27)]
        total = sum(pops)
        shares = [(2 * p * 10**4 + total) // (2 * total) for p in pops]
        if sum(shares) % 20 == 0 and math.gcd(*shares) == 1:
            return pops


class InverseHeuristic:
    """12 padded targets (two L1 extremal n = 7 games per index, padded
    to n = 9, 10, 11) and two council targets, all heuristic.  Each
    command gets its own search seed: the search's cost varies with its
    seed by up to a third, and fourteen seeds in a pass average that out
    where a single one would not."""

    def prepare(self, run: Run) -> None:
        omega = json.loads((derived(run) / "omega7.json").read_text())
        self.padded = []
        for rep in omega["reports"]:
            if rep["metric"] != "l1":
                continue
            kind = rep["kind"]
            for a in rep["attaining"]:
                n7, fam = checks.parse_complete(a["game"])
                nums, dens = checks.table_power(checks.complete_tables(n7, [fam]), n7, kind)
                vec = [Fraction(int(x), int(dens[0])) for x in nums[0]]
                if vec != [Fraction(v) for v in a["vector"]["values"]]:
                    run.fail(f"omega attaining vector of {a['game']} is not its {kind}")
                for n in PADDED_NS:
                    values = vec + [Fraction(0)] * (n - n7)
                    self.padded.append({"kind": kind, "n": n, "values": values})
        self.populations = council_populations(run.seed)
        rng = random.Random(f"heuristic:{run.seed}")
        self.search_seeds = [str(rng.randrange(10**6)) for _ in range(len(self.padded) + len(KINDS))]

    def setup(self, run: Run, where: Path) -> None:
        fresh_dir(where)
        for i, t in enumerate(self.padded):
            write_target(where / f"padded{i}.txt", t["kind"], t["values"])
        (where / "council.txt").write_text("".join(f"m{i},{p}\n" for i, p in enumerate(self.populations)))

    def one_pass(self, run: Run, where: Path) -> dict:
        from votekit import certified

        padded_s = 0.0
        bounds: dict = {}
        for i, t in enumerate(self.padded):
            dt, res = run.cli(
                ["inverse", "--target", str(where / f"padded{i}.txt"), "--mode", "heuristic", "--index", t["kind"],
                 "--metric", "l1", "--seed", self.search_seeds[i]]
            )
            padded_s += dt
            got = run.check(checks.check_heuristic, res, t["values"]) if res is not None else None
            key = (t["kind"], t["n"])
            bounds[key] = max(bounds.get(key, Fraction(0)), got if got is not None else Fraction(0))
        hits = 0
        excess = Fraction(0)
        for (kind, n), bound in sorted(bounds.items()):
            ref = Fraction(certified.PADDED_SEARCH_REFERENCE[kind, "l1"][n])
            tol = PADDED_TOL[kind]
            run.check(checks.check_padded_floor, kind, n, bound, ref, tol)
            hits += bound <= ref + tol
            excess += bound - ref
        council_s = 0.0
        for kind, seed in zip(KINDS, self.search_seeds[len(self.padded):]):
            dt, res = run.cli(
                ["inverse", "--target", "eu", "--populations", str(where / "council.txt"),
                 "--quantize", "10000", "--budget", "200", "--index", kind, "--metric", "l1",
                 "--seed", seed]
            )
            council_s += dt
            if res is not None:
                run.check(checks.check_heuristic, res)
        return {"padded_s": padded_s, "council_s": council_s, "padded_hits": hits,
                "padded_excess": float(excess)}


# ---------------------------------------------------------------------------
# stream-n8
# ---------------------------------------------------------------------------


class _SliceDone(Exception):
    pass


class StreamN8:
    """`pipeline.build_big_tables(workers=1)` over the leading games of
    the n = 8 stream, stopped by raising from its progress callback.
    One worker keeps the work in this process, where speed.py's loops
    see the core it runs on; with a pool of two, the pass's wall time
    spread 13% between runs and the loops here could not correct it."""

    SLICE = 32768
    WORKERS = 1

    def prepare(self, run: Run) -> None:
        pass

    def setup(self, run: Run, where: Path) -> None:
        fresh_dir(where)

    def one_pass(self, run: Run, where: Path) -> dict:
        from votekit import certified, pipeline

        cache = fresh_dir(where / "cache")
        seen = []

        def progress(done, total):
            seen.append(done)
            if done >= self.SLICE:
                raise _SliceDone

        def sliced():
            try:
                pipeline.build_big_tables(cache, workers=self.WORKERS, progress=progress)
            except _SliceDone:
                return True
            return False

        slice_s, stopped = run.call("pipeline.stream", sliced)
        if stopped is not None:
            left = sorted(p.name for p in cache.iterdir())
            if not stopped or seen[-1:] != [self.SLICE]:
                run.fail(f"n=8 slice did not stop at {self.SLICE} games: {seen}")
            elif left:
                run.fail(f"aborted n=8 build left files behind: {left}")
        rate = self.SLICE / slice_s
        return {"slice_s": slice_s, "n8_projected_h": certified.COMPLETE_COUNTS[8] / rate / 3600}


WORKLOADS = {
    "catalog-cold": CatalogCold,
    "query-warm": QueryWarm,
    "inverse-heuristic": InverseHeuristic,
    "stream-n8": StreamN8,
}
