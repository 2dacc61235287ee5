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
from typing import Callable, Iterator, Sequence

import numpy as np

from . import certified
from .games import (
    CompleteGame,
    ExplicitGame,
    WeightedGame,
    _family_lists,
    _linear_extension,
    _lower_neighbors,
    _upper_neighbors,
    canonical_table,
    is_weighted,
    sorted_complete_representation,
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


def shift_minimal_families(tables: np.ndarray, n: int) -> list[tuple[int, ...]]:
    return _family_lists(tables, _lower_neighbors(n), True)


def shift_maximal_losing_families(tables: np.ndarray, n: int) -> list[tuple[int, ...]]:
    return _family_lists(tables, _upper_neighbors(n), False)


def classify_weighted_chunk(
    n: int,
    smw: Sequence[tuple[int, ...]],
    sml: Sequence[tuple[int, ...]],
) -> list[tuple[int, tuple[int, ...]] | None]:
    """Weighted representations (quota, weights) per game, None where the
    game is not weighted."""
    return [sorted_complete_representation(n, w, l) for w, l in zip(smw, sml)]


def check_certified_count(klass: str, n: int, count: int) -> None:
    expected = certified.GAME_COUNTS.get(klass, {}).get(n)
    if expected is not None and count != expected:
        raise certified.CountMismatchError(f"{klass}({n})", expected, count)


def certificate_game(row) -> WeightedGame:
    """The weighted game of one stored (quota, weights...) row."""
    return WeightedGame(int(row[0]), [int(w) for w in row[1:]])


def _parallel_classify(n, smw, sml, workers):
    from concurrent.futures import ProcessPoolExecutor

    blocks = max(1, len(smw) // (workers * 4))
    spans = [(i, min(i + blocks, len(smw))) for i in range(0, len(smw), blocks)]
    out: list = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(classify_weighted_chunk, n, smw[a:b], sml[a:b]) for a, b in spans
        ]
        for f in futures:
            out.extend(f.result())
    return out


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
