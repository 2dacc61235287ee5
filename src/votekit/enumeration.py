"""Exhaustive enumeration of complete simple games.

With voters sorted strongest-first, complete simple games correspond one
to one with up-sets of the shift order on coalitions, so isomorphism
classes come out of a depth-first search over monotone 0/1 labellings of
the coalition lattice with no deduplication step.  The lattice is walked
in a fixed linear extension; a coalition's label is forced to 1 as soon
as one of its one-step weakenings is labelled 1, and is a branch point
otherwise.  The empty coalition is pinned to 0 and the grand coalition
to 1, which keeps the labelling a simple game.

Enumerated counts are checked against certified values before anything
downstream may consume them.  Games are produced in chunks; the tier
builder in votekit.pipeline streams them to disk for every n <= 8
(16.2 million games and hours of CPU time at n = 8), and the tier
loaders read them back through read_catalog and certificate_game.  The
28 simple games on 4 voters are enumerated on request by
enumerate_simple4, which is not cached.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from . import certified
from .exactlp import solve_block
from .games import (
    CompleteGame,
    ExplicitGame,
    WeightedGame,
    _family_masks,
    _linear_extension,
    _lower_neighbors,
    _upper_neighbors,
    canonical_table,
    is_weighted,
)

__all__ = [
    "BIG_N",
    "certificate_game",
    "enumerate_simple4",
    "iter_complete_chunks",
    "classify_weighted_chunk",
    "check_certified_count",
    "read_catalog",
    "read_catalog_header",
    "CatalogWriter",
    "iter_catalog_masks",
    "CatalogFormatError",
]

# The most voters enumerated; that tier takes hours and is built on request.
BIG_N = 8
DEFAULT_CHUNK = 16384
# Weightedness systems solved in lockstep; at 8 voters the block's
# tableau is about 1.6 MB.
LP_BLOCK = 512


def _iter_labelings(order: Sequence[int], lowers: Sequence[Sequence[int]]) -> Iterator[bytearray]:
    """All monotone labellings with order[0] -> 0 and order[-1] -> 1.

    Yields one shared bytearray indexed by coalition mask; callers must
    copy it before advancing.
    """
    size = len(order)
    lowers_by_pos = [lowers[m] for m in order]
    val = bytearray(size)
    stack: list[int] = []
    t = 0
    while True:
        while t < size:
            m = order[t]
            forced = False
            for f in lowers_by_pos[t]:
                if val[f]:
                    forced = True
                    break
            if forced:
                val[m] = 1
            elif t == size - 1:
                val[m] = 1  # the grand coalition must win
            else:
                val[m] = 0  # covers the empty coalition, never branched
                if t > 0:
                    stack.append(t)
            t += 1
        yield val
        if not stack:
            return
        t = stack.pop()
        val[order[t]] = 1
        t += 1


def iter_complete_chunks(
    n: int,
    chunk_size: int = DEFAULT_CHUNK,
    progress: Callable[[int], None] | None = None,
) -> Iterator[np.ndarray]:
    """Outcome tables of all complete games with n voters, strongest voter
    first, in chunks of shape (games, 2**n)."""
    if not 1 <= n <= BIG_N:
        raise ValueError(f"enumeration supports 1..{BIG_N} voters, got {n}")
    size = 1 << n
    order = _linear_extension(n)
    lowers = _lower_neighbors(n)
    buf = np.empty((chunk_size, size), dtype=np.uint8)
    done = 0
    i = 0
    for val in _iter_labelings(order, lowers):
        buf[i] = np.frombuffer(val, dtype=np.uint8)
        i += 1
        if i == chunk_size:
            done += i
            yield buf[:i].copy()
            if progress is not None:
                progress(done)
            i = 0
    if i:
        done += i
        yield buf[:i].copy()
        if progress is not None:
            progress(done)


def shift_minimal_families(tables: np.ndarray, n: int) -> np.ndarray:
    """Each game's shift-minimal winning coalitions, as a (games, 2**n)
    boolean matrix."""
    return _family_masks(tables, _lower_neighbors(n), True)


def shift_maximal_losing_families(tables: np.ndarray, n: int) -> np.ndarray:
    """Each game's shift-maximal losing coalitions, as a (games, 2**n)
    boolean matrix."""
    return _family_masks(tables, _upper_neighbors(n), False)


@lru_cache(maxsize=None)
def _prefix_counts(n: int) -> np.ndarray:
    """Row m: how many of the strongest 1, 2, ..., n voters coalition m holds."""
    members = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    return np.cumsum(members, axis=1)


def _classify_block(n: int, win: np.ndarray, lose: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # sorted_complete_representation's system for every game, row for row:
    # the shift-minimal winning rows, then the shift-maximal losing ones,
    # each family in ascending mask order, over (weight differences, quota).
    games = len(win)
    n_win = win.sum(axis=1)
    rows = int((n_win + lose.sum(axis=1)).max(initial=0))
    coeffs = np.zeros((games, rows, n + 1), dtype=np.int64)
    rhs = np.zeros((games, rows), dtype=np.int64)
    for family, sign, offset in ((win, 1, np.zeros_like(n_win)), (lose, -1, n_win)):
        g, mask = np.nonzero(family)
        pos = np.arange(len(g)) - np.searchsorted(g, g) + offset[g]
        coeffs[g, pos, :n] = sign * _prefix_counts(n)[mask]
        coeffs[g, pos, n] = -sign
        if sign < 0:
            rhs[g, pos] = 1
    feasible, nums, dens = solve_block(coeffs, rhs)

    # games._integerize, then the quota and gcd step, in integers: scale
    # x = nums / dens by the lcm of its reduced denominators, take suffix
    # sums of the differences as weights, tighten the quota to the lightest
    # shift-minimal winning coalition and divide out the common gcd.
    nums, dens = nums[feasible], dens[feasible, None]
    scale = np.lcm.reduce(dens // np.gcd(nums, dens), axis=1)
    diffs = (nums // (dens[:, 0] // scale)[:, None])[:, :n]
    weights = np.cumsum(diffs[:, ::-1], axis=1)[:, ::-1]
    coalition = diffs @ _prefix_counts(n).T  # every coalition's weight
    quota = np.where(win[feasible], coalition, coalition[:, -1:]).min(axis=1)
    certs = np.column_stack([quota, weights])
    certs = certs // np.gcd.reduce(certs, axis=1)[:, None]
    return feasible, certs.astype(np.int64, copy=False)


def classify_weighted_chunk(
    n: int, win: np.ndarray, lose: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Which games of a chunk are weighted, and their certificates.

    win and lose are the chunk's shift-minimal winning and shift-maximal
    losing families (shift_minimal_families, shift_maximal_losing_families).
    Returns a boolean flag per game and one (quota, weights...) int64 row
    per weighted game, in chunk order: for each game exactly what
    games.sorted_complete_representation returns, with the systems solved
    LP_BLOCK at a time by exactlp.solve_block, whose answers do not depend
    on the other systems of a block.
    """
    weighted = np.zeros(len(win), dtype=bool)
    certs = np.zeros((len(win), n + 1), dtype=np.int64)
    # Blocks of games with similar row counts carry less padding.
    order = np.argsort(win.sum(axis=1) + lose.sum(axis=1), kind="stable")
    for start in range(0, len(win), LP_BLOCK):
        games = order[start : start + LP_BLOCK]
        flags, rows = _classify_block(n, win[games], lose[games])
        weighted[games] = flags
        certs[games[flags]] = rows
    return weighted, certs[weighted]


def check_certified_count(klass: str, n: int, count: int) -> None:
    expected = certified.GAME_COUNTS.get(klass, {}).get(n)
    if expected is not None and count != expected:
        raise certified.CountMismatchError(f"{klass}({n})", expected, count)


def certificate_game(row) -> WeightedGame:
    """The weighted game of one stored (quota, weights...) row."""
    return WeightedGame(int(row[0]), [int(w) for w in row[1:]])


def enumerate_simple4() -> list[tuple[ExplicitGame, WeightedGame | None]]:
    """All 28 simple games on 4 voters up to isomorphism, each with its
    weighted representation or None.

    Walks monotone labellings of the inclusion lattice (one-step weakening
    = drop one member) and dedups by the minimal table over voter
    relabellings.  Weightedness is classified with the general-purpose
    test, certificates included.
    """
    n = 4
    size = 1 << n
    order = sorted(range(size), key=lambda m: (m.bit_count(), m))
    removals = [
        tuple(m & ~(1 << b) for b in range(n) if (m >> b) & 1) for m in range(size)
    ]
    seen: dict[bytes, None] = {}
    for val in _iter_labelings(order, removals):
        e = ExplicitGame(n, bytes(val), validate=False)
        seen.setdefault(canonical_table(e).table, None)
    tables = sorted(seen)
    check_certified_count("sg4", 4, len(tables))
    games = [ExplicitGame(n, t, validate=False) for t in tables]
    pairs = [(g, is_weighted(g)) for g in games]
    weighted = sum(rep is not None for _, rep in pairs)
    if weighted != certified.SIMPLE_4_WEIGHTED:
        raise certified.CountMismatchError("weighted sg4", certified.SIMPLE_4_WEIGHTED, weighted)
    return pairs


# ---------------------------------------------------------------------------
# Binary catalog file
#
# Layout (little-endian): magic "VKCAT1", u8 class tag, u8 n, u64 game
# count, then per game a u16 coalition count followed by that many u32
# shift-minimal winning coalition masks.
# ---------------------------------------------------------------------------

_MAGIC = b"VKCAT1"
_CLASS_TAGS = {"cg": 0, "wg": 1}
_TAG_CLASSES = {v: k for k, v in _CLASS_TAGS.items()}
_HEADER = struct.Struct("<6sBBQ")


class CatalogFormatError(ValueError):
    pass


class CatalogWriter:
    """Incremental writer so huge catalogs never sit in memory.

    The game count is patched into the header on close.
    """

    def __init__(self, path, klass: str, n: int):
        self.path = path
        self.klass = klass
        self.n = n
        self.count = 0
        self._fh = open(path, "wb")
        self._fh.write(_HEADER.pack(_MAGIC, _CLASS_TAGS[klass], n, 0))

    def add(self, masks: Sequence[int]) -> None:
        self._fh.write(struct.pack(f"<H{len(masks)}I", len(masks), *masks))
        self.count += 1

    def add_many(self, families: Sequence[Sequence[int]]) -> None:
        for masks in families:
            self.add(masks)

    def close(self) -> int:
        self._fh.seek(8)
        self._fh.write(struct.pack("<Q", self.count))
        self._fh.close()
        return self.count


def _read_header(fh, path):
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise CatalogFormatError(f"{path}: truncated header")
    magic, tag, n, count = _HEADER.unpack(raw)
    if magic != _MAGIC:
        raise CatalogFormatError(f"{path}: bad magic {magic!r}")
    if tag not in _TAG_CLASSES:
        raise CatalogFormatError(f"{path}: unknown class tag {tag}")
    if not 1 <= n <= BIG_N:
        raise CatalogFormatError(f"{path}: unsupported voter count {n}")
    return _TAG_CLASSES[tag], n, count


def read_catalog_header(path) -> tuple[str, int, int]:
    """(klass, n, game count) from a catalog file's header."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def iter_catalog_masks(path, chunk_size: int = DEFAULT_CHUNK):
    """Header plus streamed mask families from a catalog file.

    Returns ((klass, n, count), iterator over lists of mask tuples).
    """
    fh = open(path, "rb")
    try:
        klass, n, count = _read_header(fh, path)
    except Exception:
        fh.close()
        raise

    def chunks():
        try:
            remaining = count
            while remaining:
                block = []
                for _ in range(min(chunk_size, remaining)):
                    raw = fh.read(2)
                    if len(raw) != 2:
                        raise CatalogFormatError(f"{path}: truncated game record")
                    (k,) = struct.unpack("<H", raw)
                    body = fh.read(4 * k)
                    if len(body) != 4 * k:
                        raise CatalogFormatError(f"{path}: truncated game record")
                    block.append(struct.unpack(f"<{k}I", body))
                remaining -= len(block)
                yield block
        finally:
            fh.close()

    return (klass, n, count), chunks()


def read_catalog(path) -> list[CompleteGame]:
    """Load a catalog file's games, re-checking the certified count."""
    (klass, n, count), chunks = iter_catalog_masks(path)
    games = [CompleteGame(n, masks, validate=False) for block in chunks for masks in block]
    check_certified_count(klass, n, len(games))
    return games
