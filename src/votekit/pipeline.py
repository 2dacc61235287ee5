"""Disk cache of catalog tiers.

A tier holds what is known about the complete games with n voters,
1 <= n <= 8, as nine files written by one streamed pass:

* cg{n}.cat and wg{n}.cat: the complete and the weighted games (VKCAT1);
* {cg,wg}{n}.{ssi,pbi}.store.npy: the distinct power vectors of each
  class, one (reduced numerators..., denominator, rep) int64 row each,
  distinct and in lexicographic order, rep the first catalog index
  attaining the vector: the rows and reps of geometry.store_from_rows;
* cg{n}.{ssi,pbi}.pos.npy: one int64 row per complete game, aligned with
  its catalog, the row of the game's vector in the cg store file;
* wg{n}.cert.npy: one (quota, weights...) int64 row per weighted game,
  checked against the game's winning table before it is written.

The catalogs and the certificate file are written the same way: each is
opened with its header for the certified game count, and every chunk
appends its rows to each (enumeration.catalog_records for the catalogs,
raw int64 rows for the certificates).  A chunk's shift families are
listed once (games.Listing); the classifier, the cg records and the wg
records, the weighted games' runs of the winning listing, all read
those listings, and each certificate is checked against its game's
table by doubled subset sums.  Each index kind has one
distinct-row accumulator over the complete games' vectors, and its cg
store and position files are that accumulator's rows and positions; the
wg store is the same store restricted to the weighted games, each rep the
first weighted game at its row.  A store is written once its distinct
count is certified.  Every count is certified before any file is moved into
place, so a tier is only ever installed whole.  Tiers below 8 voters
are built on first use and rebuilt when a file is missing or
unreadable, in the calling process; the 8-voter tier takes minutes
(cold builds with two workers on 2 vCPUs ran 133-281 s, BENCH_build8.json)
and 3.2 GB, and is built only by build_big_tables: a
loader that finds one of its files missing or damaged raises TierError.
build_tier and build_big_tables are the only calls that take a worker
count, for a process pool that pays off only at 8 voters.

Each tier file has one reader, and the reader checks what it returns:
_checked_catalog a catalog's header (enumeration's block walker checks
every record it reads), _load_store every row of a store
file (its row count the certified distinct count, where one exists, its
rows reduced, in strictly increasing order, with reps inside the
catalog), _load_positions every row of a position file (one per game,
each a row of the store, each store row's rep the first game at the
row) and load_certificates every certificate row it returns: all of
them, or only the rows at given weighted-catalog indices.  Each datum of
a tier has one loader, which reads, and so checks, only the files behind
it, building the tier when needed: ensure_tier (the directory, with the
catalog headers and every store, position and certificate row
checked), load_games (the games of one class), load_listing (the same
games as text, and for wg their certificates' text, with no game object
built), tier_counts (game and distinct-vector counts, the latter the
lengths of the store files), weighted_store (the stored weighted
vectors), weighted_games (the weighted games at given catalog indices,
from their certificate rows alone) and omega_tier (gap reports of the cg
store files, streamed, against the wg ones, with the attaining games
found in the cg position files and read through
enumeration.fetch_catalog_games, and the nearest weighted games read
through weighted_games).  Only ensure_tier and load_listing read every
certificate row; a query reads the rows of the games it reports.  The
loaders check their class and index kind names before they touch the
cache.  A damaged file, or certificate row, that a loader does not read
is left alone until a loader that reads it rebuilds the tier, or at 8
voters raises TierError.
"""

from __future__ import annotations

import math
import os
import tempfile
from contextlib import ExitStack
from functools import reduce
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import certified
from .certified import CountMismatchError
from .enumeration import (
    BIG_N,
    CatalogFormatError,
    catalog_header,
    catalog_records,
    certificate_game,
    check_certified_count,
    classify_weighted_chunk,
    fetch_catalog_games,
    iter_complete_chunks,
    read_catalog,
    read_catalog_header,
    read_catalog_texts,
    shift_maximal_losing_families,
    shift_minimal_families,
)
from .games import CompleteGame, WeightedGame, _subset_sums, _weighted_texts
from .geometry import (
    GapQueries,
    GapReport,
    GapTracker,
    Metric,
    VectorStore,
    _reduced_rows,
    unique_rows,
)
from .indices import KINDS, batch_numerators

__all__ = [
    "BIG_N",
    "default_cache_dir",
    "catalog_path",
    "store_path",
    "position_path",
    "certificate_path",
    "TierError",
    "build_tier",
    "build_big_tables",
    "ensure_tier",
    "tier_counts",
    "load_games",
    "load_listing",
    "weighted_store",
    "weighted_games",
    "load_certificates",
    "omega_tier",
]

_CLASSES = ("cg", "wg")
# Rows per streamed block of a tier file; bounds memory at 8 voters.
_SCAN = 1 << 16
# Certificates per block of the check; its int64 product stays near 2 MB.
_CERT_BLOCK = 1024


def default_cache_dir() -> Path:
    env = os.environ.get("VOTEKIT_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "votekit"


def _check_voters(n: int) -> None:
    if not 1 <= n <= BIG_N:
        raise ValueError(f"tiers exist for 1..{BIG_N} voters, got {n}")


def _resolve(cache_dir) -> Path:
    return Path(cache_dir) if cache_dir is not None else default_cache_dir()


def catalog_path(cache_dir, klass: str, n: int) -> Path:
    return Path(cache_dir) / f"{klass}{n}.cat"


def store_path(cache_dir, klass: str, n: int, kind: str) -> Path:
    return Path(cache_dir) / f"{klass}{n}.{kind}.store.npy"


def position_path(cache_dir, n: int, kind: str) -> Path:
    return Path(cache_dir) / f"cg{n}.{kind}.pos.npy"


def certificate_path(cache_dir, n: int) -> Path:
    return Path(cache_dir) / f"wg{n}.cert.npy"


def _tier_paths(cache_dir, n: int) -> dict[str, Path]:
    out = {f"{klass}.cat": catalog_path(cache_dir, klass, n) for klass in _CLASSES}
    for kind in KINDS:
        for klass in _CLASSES:
            out[f"{klass}.{kind}.store"] = store_path(cache_dir, klass, n, kind)
        out[f"cg.{kind}.pos"] = position_path(cache_dir, n, kind)
    out["wg.cert"] = certificate_path(cache_dir, n)
    return out


def _legacy_paths(cache_dir, n: int) -> list[Path]:
    """The per-game vector files, one row per game, that tiers held
    before the position files replaced them; nothing reads them, and
    build_tier deletes them (2.7 GB at 8 voters)."""
    return [Path(cache_dir) / f"{klass}{n}.{kind}.npy" for klass in _CLASSES for kind in KINDS]


# ---------------------------------------------------------------------------
# Reading tier files
# ---------------------------------------------------------------------------


def _read_rows(path: Path, rows: int | None, cols: int) -> np.ndarray:
    """A tier .npy file, memory-mapped, as an int64 matrix of the expected
    shape; rows None takes any number of rows."""
    try:
        arr = np.load(path, mmap_mode="r")
    except (ValueError, EOFError) as exc:
        raise CatalogFormatError(f"{path}: {exc}") from None
    if arr.dtype != np.int64 or arr.ndim != 2 or arr.shape[1] != cols or rows not in (None, len(arr)):
        raise CatalogFormatError(
            f"{path}: expected int64 rows of shape {(rows, cols)}, found {arr.dtype} {arr.shape}"
        )
    return arr


def _check_blocks(path: Path, rows: np.ndarray, ok: Callable[[np.ndarray], bool], what: str) -> None:
    """Raise unless ok(block) holds for every block of _SCAN rows.  Each
    block after the first opens with the last row of the one before, so
    that a check of adjacent rows spans the blocks' boundaries."""
    for start in range(0, len(rows), _SCAN):
        if not ok(rows[max(start - 1, 0) : start + _SCAN]):
            raise CatalogFormatError(f"{path}: rows are not {what}")


def _load_store(cache_dir, klass: str, n: int, kind: str) -> VectorStore:
    """The distinct vectors of one class and index kind, as the tier
    build stored them, every row checked: as many rows as the certified
    distinct count, where one exists; entries nonnegative, numerators
    summing to their positive denominator, which divides n! for ssi, no
    common factor; rows strictly increasing; each rep a catalog index."""
    path = store_path(cache_dir, klass, n, kind)
    rows = _read_rows(path, certified.DISTINCT_VECTOR_COUNTS[klass, kind].get(n), n + 2)
    games = certified.GAME_COUNTS[klass][n]

    def ok(block: np.ndarray) -> bool:
        vecs, dens = block[:, : n + 1], block[:, n]
        if not (block.min() >= 0 and (dens > 0).all() and (block[:, -1] < games).all()):
            return False
        if kind == "ssi" and not (math.factorial(n) % dens == 0).all():
            return False
        # Strictly increasing: the first nonzero entry of each difference
        # of adjacent rows is positive.
        steps = np.diff(vecs, axis=0)
        first = steps[np.arange(len(steps)), (steps != 0).argmax(axis=1)]
        return bool(
            np.array_equal(np.einsum("ij->i", block[:, :n]), dens)
            and (reduce(np.gcd, vecs.T) == 1).all()
            and (first > 0).all()
        )

    _check_blocks(path, rows, ok, f"distinct reduced {kind} vectors in order")
    return VectorStore(kind, n, rows[:, : n + 1], rows[:, n + 1])


def _load_positions(cache_dir, store: VectorStore) -> np.ndarray:
    """The row of each complete game's vector in store, a cg store file's
    rows, every entry checked: one per catalog game, each a row of
    the store, and each store row's rep the first game at the row, which
    holds when every game's row has its rep at or before the game and
    every rep is at its own row."""
    path = position_path(cache_dir, store.n, store.kind)
    pos = _read_rows(path, certified.GAME_COUNTS["cg"][store.n], 1)[:, 0]
    for start in range(0, max(len(pos), len(store)), _SCAN):
        block, reps = pos[start : start + _SCAN], store.reps[start : start + _SCAN]
        if not (
            block.min(initial=0) >= 0
            and block.max(initial=0) < len(store)
            and (store.reps[block] <= np.arange(start, start + len(block))).all()
            and np.array_equal(pos[reps], np.arange(start, start + len(reps)))
        ):
            raise CatalogFormatError(f"{path}: rows are not the store rows of their games")
    return pos


def load_certificates(n: int, cache_dir=None, rows=None) -> np.ndarray:
    """The (quota, weights...) rows of the n-voter weighted games, or
    with rows, a sequence of weighted-catalog indices, just those rows in
    that order; every row returned is checked as the classifier writes
    it: quota >= 1, weights >= 0 and non-increasing (strongest voter
    first), summing to at least the quota (the grand coalition wins), no
    common factor.  A voter count without a tier raises ValueError."""
    _check_voters(n)
    path = certificate_path(_resolve(cache_dir), n)
    certs = _read_rows(path, certified.GAME_COUNTS["wg"][n], n + 1)
    if rows is not None:
        certs = certs[np.asarray(rows, dtype=np.intp)]

    def ok(block: np.ndarray) -> bool:
        weights = block[:, 1:]
        # Non-increasing weights are all >= 0 when the last one is; the
        # gcd runs from the smallest entries, which reach 1 soonest.
        return bool(
            (block[:, 0] >= 1).all()
            and (weights[:, :-1] >= weights[:, 1:]).all()
            and (weights[:, -1] >= 0).all()
            and (np.einsum("ij->i", weights) >= block[:, 0]).all()
            and (reduce(np.gcd, block.T[::-1]) == 1).all()
        )

    _check_blocks(path, certs, ok, "reduced certificates")
    return certs


def _checked_catalog(cache_dir, klass: str, n: int) -> Path:
    """The path of the cg or wg catalog, once its header is found to be
    the certified n-voter one."""
    path = catalog_path(cache_dir, klass, n)
    header = read_catalog_header(path)
    if header != (klass, n, certified.GAME_COUNTS[klass][n]):
        raise CatalogFormatError(f"{path}: header {header} is not the certified {klass}{n} catalog")
    return path


def _check_tier(n: int, cache_dir: Path) -> Path:
    """cache_dir, once every tier file is present, each catalog with its
    certified header, and every store, position and certificate row
    passes its loader's check."""
    for klass in _CLASSES:
        _checked_catalog(cache_dir, klass, n)
    for kind in KINDS:
        _load_positions(cache_dir, _load_store(cache_dir, "cg", n, kind))
        _load_store(cache_dir, "wg", n, kind)
    load_certificates(n, cache_dir)
    return cache_dir


def _check_class(klass: str) -> None:
    if klass not in _CLASSES:
        raise ValueError(f"unknown catalog class {klass!r}")


def _checked_kinds(kinds: Iterable[str]) -> list[str]:
    """kinds as a list, once each is an index kind."""
    kinds = list(kinds)
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown index kind {kind!r}; expected one of {', '.join(KINDS)}")
    return kinds


class TierError(Exception):
    """The 8-voter tier is missing or damaged; the reader's error, which
    names the file, is the cause."""


def _load_tier(n: int, cache_dir, load: Callable[[Path], object]):
    """load(cache_dir), which reads and checks the tier files it needs.

    Below 8 voters a missing or unreadable file rebuilds the whole tier
    and load runs again, in this process: a process pool pays for itself
    only at 8 voters.  At 8 voters it raises TierError instead: only
    build_big_tables builds that tier.  Files are memory-mapped, so a
    tier's pages need not all stay resident.  A voter count without a
    tier raises ValueError before any file is read.
    """
    _check_voters(n)
    cache_dir = _resolve(cache_dir)
    try:
        return load(cache_dir)
    except (CatalogFormatError, CountMismatchError, OSError) as exc:
        if n == BIG_N:
            raise TierError(f"the {n}-voter tier cannot be read: {exc}") from exc
    build_tier(n, cache_dir)
    return load(cache_dir)


def ensure_tier(n: int, cache_dir=None) -> Path:
    """The cache directory, holding an n-voter tier whose catalog headers
    and store, position and certificate rows check out; the catalog
    records are checked by the readers of the games."""
    return _load_tier(n, cache_dir, lambda cache: _check_tier(n, cache))


def tier_counts(
    klass: str, n: int, kinds: Iterable[str] = KINDS, cache_dir=None
) -> tuple[int, dict[str, int]]:
    """(games, distinct vectors per index kind) of the cg or wg games of
    the n-voter tier, read from its store files; no game is loaded.

    The game count is the catalog header's, which is checked to be the
    certified count; each distinct count is a store file's row count,
    which its reader checks against the certified one.
    """
    _check_class(klass)
    kinds = _checked_kinds(kinds)

    def load(cache: Path) -> tuple[int, dict[str, int]]:
        _checked_catalog(cache, klass, n)
        distinct = {kind: len(_load_store(cache, klass, n, kind)) for kind in kinds}
        return certified.GAME_COUNTS[klass][n], distinct

    return _load_tier(n, cache_dir, load)


def load_games(klass: str, n: int, cache_dir=None) -> list[CompleteGame]:
    """The cg or wg games of the n-voter tier, in catalog order."""
    _check_class(klass)
    return _load_tier(n, cache_dir, lambda cache: read_catalog(_checked_catalog(cache, klass, n)))


def load_listing(klass: str, n: int, cache_dir=None) -> tuple[list[str], list[str] | None]:
    """The text of each cg or wg game of the n-voter tier, in catalog
    order, plus for wg the text [q;w1,...,wn] of each game's certificate
    (None for cg): game_to_text of load_games and of certificate_game,
    built in bulk from the checked rows with no game object."""
    _check_class(klass)

    def load(cache: Path) -> tuple[list[str], list[str] | None]:
        games = read_catalog_texts(_checked_catalog(cache, klass, n))
        if klass == "cg":
            return games, None
        return games, _weighted_texts(n, load_certificates(n, cache).tolist())

    return _load_tier(n, cache_dir, load)


def weighted_store(n: int, kind: str, cache_dir=None) -> VectorStore:
    """The distinct weighted-game vectors of the n-voter tier, as its
    store file holds them; each rep is a weighted-catalog index, which
    weighted_games turns into its game."""
    _checked_kinds([kind])
    return _load_tier(n, cache_dir, lambda cache: _load_store(cache, "wg", n, kind))


def weighted_games(n: int, indices: Iterable[int], cache_dir=None) -> dict[int, WeightedGame]:
    """The weighted games at the given positions of the n-voter weighted
    catalog, built from their certificate rows, which are read and
    checked alone; no file is read when there are none, nor when a
    position lies outside the catalog or n outside the tiers, which
    raise ValueError."""
    _check_voters(n)
    want = sorted({int(i) for i in indices})
    if not want:
        return {}
    outside = [i for i in want if not 0 <= i < certified.GAME_COUNTS["wg"][n]]
    if outside:
        raise ValueError(f"the {n}-voter weighted catalog has no game at index {outside[0]}")

    def load(cache: Path) -> dict[int, WeightedGame]:
        return dict(zip(want, map(certificate_game, load_certificates(n, cache, want))))

    return _load_tier(n, cache_dir, load)


# ---------------------------------------------------------------------------
# Building a tier: one streamed pass, certified, then installed
# ---------------------------------------------------------------------------


# Pending rows per compaction: 144 MiB of 9-column int64 rows at 8 voters.
_UNIQUE_LIMIT = 1 << 21


class _UniqueAccumulator:
    """Distinct rows of a huge matrix of cols columns, accumulated in
    bounded memory, and positions, one array per added chunk, in row
    order, holding the position of each matrix row's distinct row.

    Chunks are deduplicated on arrival and merged into the sorted base
    whenever the pending pile grows past _UNIQUE_LIMIT rows.  Until the
    next merge, a chunk's positions point into the merge's input, the base
    followed by the pending rows; each merge maps every array through its
    inverse, in place, so that no more than one chunk's copy is held.
    """

    def __init__(self, cols: int):
        self.base = np.empty((0, cols), dtype=np.int64)
        self.pending: list[np.ndarray] = []
        self.pending_rows = 0
        self.positions: list[np.ndarray] = []

    def add(self, rows: np.ndarray) -> None:
        """Take the matrix's next rows."""
        u, _, inverse = unique_rows(rows)
        self.positions.append(inverse + (len(self.base) + self.pending_rows))
        self.pending.append(u)
        self.pending_rows += len(u)
        if self.pending_rows >= _UNIQUE_LIMIT:
            self.compact()

    def compact(self) -> None:
        if not self.pending:
            return
        self.base, _, inverse = unique_rows(np.concatenate([self.base, *self.pending]))
        for p in self.positions:
            p[:] = inverse[p]
        self.pending = []
        self.pending_rows = 0

    def store(self, picked) -> tuple[np.ndarray, np.ndarray]:
        """(rows, reps) of the distinct rows among the picked matrix rows,
        an increasing index array or a slice: rows their increasing
        indices in base, so in lexicographic order, and reps for each the
        index among the picked rows of the first equal to it."""
        self.compact()
        return np.unique(np.concatenate(self.positions)[picked], return_index=True)


def _check_certificates(n: int, certs: np.ndarray, tables: np.ndarray, widx: list[int]) -> None:
    """Raise unless each [q; w] row wins on exactly the coalitions its
    game's table marks winning.  Coalition weights are games._subset_sums,
    doubled one voter at a time: n exact int64 adds per block."""
    for start in range(0, len(certs), _CERT_BLOCK):
        block = certs[start : start + _CERT_BLOCK]
        wins = _subset_sums(block[:, 1:]) >= block[:, :1]
        want = tables[widx[start : start + _CERT_BLOCK]].astype(bool)
        bad = int(np.count_nonzero((wins != want).any(axis=1)))
        if bad:
            raise CountMismatchError(
                f"wg({n}) certificates reproducing their games", len(block), len(block) - bad
            )


def _classify(n, win, lose, pool, workers):
    """classify_weighted_chunk over the chunk, split across the pool's
    workers when there is a pool."""
    if pool is None:
        return classify_weighted_chunk(n, win, lose)
    step = max(1, -(-len(win) // workers))
    splits = [np.arange(a, min(a + step, len(win))) for a in range(0, len(win), step)]
    futures = [pool.submit(classify_weighted_chunk, n, win.take(s), lose.take(s)) for s in splits]
    parts = [f.result() for f in futures]
    return np.concatenate([f for f, _ in parts]), np.concatenate([c for _, c in parts])


def _write_chunk(n, tables, pool, workers, files, accs) -> np.ndarray:
    """Classify one chunk of complete games, append it to the streamed
    catalogs and certificates and its vectors to the accumulators, one per
    index kind; returns the indices in the chunk of its weighted games.
    Each shift family is listed once (games.Listing), and the classifier
    and the catalog records read the listings; the weighted games'
    records are their runs of the winning listing.  Kept apart so that
    the chunk's arrays are freed before the next one."""
    ssi_nums, ssi_den, pbi_nums = batch_numerators(tables)
    vectors = {
        "ssi": _reduced_rows(ssi_nums, ssi_den),
        "pbi": _reduced_rows(pbi_nums, pbi_nums.sum(axis=1)),
    }
    win = shift_minimal_families(tables, n)
    weighted, certs = _classify(n, win, shift_maximal_losing_families(tables, n), pool, workers)
    widx = np.flatnonzero(weighted)
    _check_certificates(n, certs, tables, widx)

    catalog_records(n, win).tofile(files["cg.cat"])
    catalog_records(n, win.take(widx)).tofile(files["wg.cat"])
    for kind, rows in vectors.items():
        accs[kind].add(rows)
    certs.astype("<i8", copy=False).tofile(files["wg.cert"])
    return widx


def _write_npy_header(fh, rows: int, cols: int) -> None:
    np.lib.format.write_array_header_1_0(fh, {"descr": "<i8", "fortran_order": False, "shape": (rows, cols)})


def _write_rows(path: Path, shape: tuple[int, int], blocks: Iterable[np.ndarray]) -> None:
    """One .npy file of int64 rows of the given shape, written block by
    block."""
    with open(path, "wb") as fh:
        _write_npy_header(fh, *shape)
        for block in blocks:
            block.astype("<i8", copy=False).tofile(fh)


def _write_tier(n, tmps, workers, progress) -> dict[str, int]:
    """Stream every complete game with n voters into the temp catalog and
    certificate files, each opened with its header for the certified game
    count, and its vectors into one accumulator per index kind.  Then
    write each store file once its distinct count is certified: the cg
    store is the accumulator's, the wg store the same store restricted to
    the weighted games; and the cg position files.  With workers > 1, one
    process pool classifies every chunk."""
    expected = {klass: certified.GAME_COUNTS[klass][n] for klass in _CLASSES}
    accs = {kind: _UniqueAccumulator(n + 1) for kind in KINDS}
    weighted = []
    with ExitStack() as stack:
        pool = None
        if workers > 1:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            spawn = multiprocessing.get_context("spawn")
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers, mp_context=spawn))
        files = {key: stack.enter_context(open(tmps[key], "wb")) for key in ("cg.cat", "wg.cat", "wg.cert")}
        for klass in _CLASSES:
            files[f"{klass}.cat"].write(catalog_header(klass, n, expected[klass]))
        _write_npy_header(files["wg.cert"], expected["wg"], n + 1)
        counts = dict.fromkeys(_CLASSES, 0)
        for tables in iter_complete_chunks(n):
            widx = _write_chunk(n, tables, pool, workers, files, accs)
            weighted.append(widx + counts["cg"])
            counts["wg"] += len(widx)
            counts["cg"] += len(tables)
            if progress is not None:
                progress(counts["cg"], expected["cg"])

    for klass in _CLASSES:
        check_certified_count(klass, n, counts[klass])
    # The weighted games' catalog indices among the complete games.
    picks = {"cg": slice(None), "wg": np.concatenate(weighted)}
    for klass in _CLASSES:
        for kind, acc in accs.items():
            key = f"{klass}.{kind}"
            rows, reps = acc.store(picks[klass])
            got = counts[key] = len(rows)
            want = certified.DISTINCT_VECTOR_COUNTS[klass, kind].get(n)
            if want is not None and got != want:
                raise CountMismatchError(f"distinct {kind} vectors over {klass} ({n} voters)", want, got)
            blocks = (np.column_stack([acc.base[rows[a : a + _SCAN]], reps[a : a + _SCAN]]) for a in range(0, got, _SCAN))
            _write_rows(tmps[f"{key}.store"], (got, n + 2), blocks)
            if klass == "cg":
                _write_rows(tmps[f"{key}.pos"], (counts["cg"], 1), acc.positions)
    return counts


def build_tier(
    n: int,
    cache_dir=None,
    workers: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> dict[str, int]:
    """Enumerate the complete games with n voters once, writing the tier.

    Classifies every game, checks every certificate against its game,
    certifies game counts and distinct-vector counts against the frozen
    values, and only then moves the files into place.  progress(done,
    total) is called after every chunk.  Files are written under unique
    temporary names in cache_dir, so concurrent builds do not collide;
    any exception, one raised from progress included, removes them all.

    Once the tier is installed, the per-game vector files of earlier
    versions, which nothing reads, are deleted.

    Returns the certified counts by label.
    """
    _check_voters(n)
    cache_dir = _resolve(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    finals = _tier_paths(cache_dir, n)
    tmps: dict[str, Path] = {}
    try:
        for key, final in finals.items():
            fd, name = tempfile.mkstemp(prefix=final.name + ".", suffix=".tmp", dir=cache_dir)
            os.close(fd)
            tmps[key] = Path(name)
        counts = _write_tier(n, tmps, workers, progress)
        for key, tmp in tmps.items():
            os.replace(tmp, finals[key])
    except BaseException:
        for tmp in tmps.values():
            tmp.unlink(missing_ok=True)
        raise
    for path in _legacy_paths(cache_dir, n):
        path.unlink(missing_ok=True)
    return counts


def build_big_tables(
    cache_dir=None,
    workers: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> dict[str, int]:
    """The 8-voter tier: minutes of work, at a peak of 3.2 GB; cold builds
    with workers=2 on 2 vCPUs ran 133-281 s (BENCH_build8.json).  See
    build_tier."""
    return build_tier(BIG_N, cache_dir, workers, progress)


# ---------------------------------------------------------------------------
# Streamed queries
# ---------------------------------------------------------------------------


def omega_tier(
    n: int,
    cache_dir=None,
    kinds: Iterable[str] = KINDS,
    metrics: Iterable[Metric] = (Metric.L1, Metric.LINF),
    progress: Callable[[str, int, int], None] | None = None,
) -> dict[tuple[str, str], GapReport]:
    """Gap reports at n voters, streamed from the tier's store files.

    The queries are the distinct complete-game vectors of each kind, read
    from its store file in blocks of _SCAN rows, searched against the
    weighted store; progress(kind, done, total) counts them.  Once the
    search is done, one pass over the position file finds every complete
    game whose vector sits at an attaining store row, and one catalog
    scan fetches those games for all kinds.

    Returns one report per (index kind, metric) pair, attaining games
    and the nearest weighted game included; nearest_index is a row of the
    weighted catalog, and the nearest games are read after the search
    from their certificate rows alone (weighted_games).
    """
    kinds = _checked_kinds(kinds)
    metrics = list(metrics)

    def load(cache: Path) -> dict[tuple[str, str], GapReport]:
        catalog = _checked_catalog(cache, "cg", n)
        reports: dict[tuple[str, str], GapReport] = {}
        for kind in kinds:
            store = _load_store(cache, "wg", n, kind)
            queries = _load_store(cache, "cg", n, kind)
            trackers = {metric: GapTracker(store, metric) for metric in metrics}
            count = len(queries)
            for start in range(0, count, _SCAN):
                stop = min(start + _SCAN, count)
                chunk = GapQueries(store, queries.rows[start:stop], metrics)
                for tracker in trackers.values():
                    tracker.feed(chunk, offset=start)
                if progress is not None:
                    progress(kind, stop, count)
            kind_reports = [tracker.report() for tracker in trackers.values()]
            _attaining_indices(cache, queries, kind_reports)
            reports.update(((kind, rep.metric.value), rep) for rep in kind_reports)
        games = fetch_catalog_games(catalog, {idx for rep in reports.values() for idx, _ in rep.attaining})
        for rep in reports.values():
            rep.attaining = [(idx, games[idx], vec) for idx, vec in rep.attaining]
        return reports

    reports = _load_tier(n, cache_dir, load)
    named = [rep.nearest_index for rep in reports.values() if rep.nearest_index is not None]
    nearest = weighted_games(n, named, cache_dir)
    for rep in reports.values():
        rep.nearest_game = nearest.get(rep.nearest_index)
    return reports


def _attaining_indices(cache: Path, store: VectorStore, reports: list[GapReport]) -> None:
    """Replace the (store row, vector) pairs of the reports' attaining
    lists, rows of the cg store, by one (catalog index, vector) pair per
    complete game at the row, in catalog order: one pass over the
    position file, in blocks of _SCAN rows."""
    wanted = np.array(sorted({row for rep in reports for row, _ in rep.attaining}), dtype=np.int64)
    if not len(wanted):
        return
    positions = _load_positions(cache, store)
    found = []
    for start in range(0, len(positions), _SCAN):
        block = positions[start : start + _SCAN]
        hits = np.flatnonzero(np.isin(block, wanted))
        found += zip((start + hits).tolist(), block[hits].tolist())
    for rep in reports:
        vecs = dict(rep.attaining)
        rep.attaining = [(idx, vecs[row]) for idx, row in found if row in vecs]
