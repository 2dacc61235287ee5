"""Exhaustive enumeration of complete simple games.

With voters sorted strongest-first, complete simple games correspond one
to one with up-sets of the shift order on coalitions, so isomorphism
classes come out of a depth-first search over monotone 0/1 labellings of
the coalition lattice with no deduplication step.  The lattice is walked
in a fixed linear extension; a coalition's label is forced to 1 as soon
as one of its lower covers in the shift order (games._lower_covers) is
labelled 1, and is a branch point otherwise.  The empty coalition is
pinned to 0 and the grand coalition to 1, which keeps the labelling a
simple game.  The search advances a block of labellings, bit-packed into
uint64 words, one position at a time: each unforced labelling becomes
its 0-child followed by its 1-child, so games come out in lexicographic
order, and a block of more than _DFS_BLOCK labellings splits in halves,
the later half stacked.

Games are produced in chunks.  shift_minimal_families and
shift_maximal_losing_families take a chunk's shift families with the
extractor in games, which packs the chunk into the DFS's word layout
and tests the same covers.
classify_weighted_chunk sorts a chunk into weighted and not weighted:
a vectorized 2-trade test (two_trade_rejects, through 9 voters) proves
most unweighted games so, and the exact LP, the only path that accepts
a game, settles the rest in lockstep blocks with a certificate per
weighted game.  The system and the certificate are games.is_weighted's
(_difference_systems and _certificates): is_weighted solves one game's
system alone, and a catalog game gets its stored certificate from it.

Enumerated counts are checked against certified values before anything
downstream may consume them.  The tier builder in votekit.pipeline
streams the chunks to disk for every n <= 8 (16.2 million games at
n = 8).  Two pure functions own the VKCAT1 format on the write side:
catalog_header encodes a file's header for a known game count, and
catalog_records a chunk's records, with one numpy encode.  One block
walker reads them back, a block of the file at a time, and checks every
record it walks (at least one coalition, each mask inside the voter
count, masks strictly increasing) for the catalog readers: read_catalog
(every game of a file, count certified, and no byte after the last
record), read_catalog_texts (the same games as text, with no game object
built, checked alike) and fetch_catalog_games (the games at given
positions, read no further than the last of them).  read_catalog_header
reads the header alone, and certificate_game turns a stored certificate
row into its weighted game.  enumerate_simple4 runs the same search
over the 4-voter inclusion lattice, forcing from its lower covers (one
member dropped), for the 28 simple games on 4 voters, which are not
cached.
"""

from __future__ import annotations

import os
import struct
from bisect import bisect_left
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import certified
from .exactlp import solve_block
from .games import (
    CompleteGame,
    ExplicitGame,
    WeightedGame,
    _certificates,
    _complete_texts,
    _difference_systems,
    _linear_extension,
    _lower_covers,
    _prefix_counts,
    _shift_family,
    canonical_table,
    is_weighted,
)

__all__ = [
    "BIG_N",
    "certificate_game",
    "enumerate_simple4",
    "iter_complete_chunks",
    "classify_weighted_chunk",
    "two_trade_rejects",
    "check_certified_count",
    "read_catalog",
    "read_catalog_texts",
    "read_catalog_header",
    "catalog_header",
    "catalog_records",
    "fetch_catalog_games",
    "CatalogFormatError",
]

# The most voters enumerated; that tier takes minutes and gigabytes, and is
# built on request.
BIG_N = 8
# Games per enumerated chunk, read as each stream starts.
DEFAULT_CHUNK = 16384
# Weightedness systems solved in lockstep.  Over the first 32,768 games
# with 8 voters the largest block's tableau has 331,037 entries: 0.66 MB
# on the int16 rung, where every pivot of that slice runs, and 2.6 MB on
# the int64 rung.
LP_BLOCK = 1024
# Partial labellings the DFS advances together; a larger block splits in halves.
_DFS_BLOCK = 2048
# Labellings unpacked to outcome tables at a time, which bounds the temporary.
_UNPACK_ROWS = 512


def _labeling_blocks(order: Sequence[int], lowers: Sequence[Sequence[int]]) -> Iterator[np.ndarray]:
    """All monotone labellings with order[0] -> 0 and order[-1] -> 1, in
    depth-first order: lexicographic in the labels along order, 0 first.

    Yields blocks of whole labellings as (labellings, words) little-endian
    uint64 arrays, bit m of a row set when coalition m is labelled 1.
    """
    size = len(order)
    words = (size + 63) >> 6
    steps = []  # per position: its word and bit, and its lower covers' words and bits
    for m in order:
        below = np.zeros(words, dtype="<u8")
        for f in lowers[m]:
            below[f >> 6] |= np.uint64(1 << (f & 63))
        cols = np.flatnonzero(below)
        steps.append((m >> 6, np.uint64(1 << (m & 63)), cols, below[cols]))
    # A block holds rows that agree before position t, and the stack the
    # blocks that come after it, the next one on top.  Position 0, the
    # empty coalition, stays 0.
    stack = [(np.zeros((1, words), dtype="<u8"), 1)]
    while stack:
        rows, start = stack.pop()
        for t in range(start, size - 1):
            word, bit, cols, below = steps[t]
            forced = (rows[:, cols] & below).any(axis=1)
            if np.count_nonzero(forced) == len(rows):
                rows[:, word] |= bit
                continue
            # An unforced row becomes its 0-child, then its 1-child.
            reps = 2 - forced
            rows = np.repeat(rows, reps, axis=0)
            rows[np.cumsum(reps) - 1, word] |= bit  # each row's last child
            if len(rows) > _DFS_BLOCK:
                half = len(rows) >> 1
                stack.append((rows[half:], t + 1))
                rows = rows[:half]
        word, bit, _, _ = steps[-1]
        rows[:, word] |= bit  # the grand coalition always wins
        yield rows


def iter_complete_chunks(n: int) -> Iterator[np.ndarray]:
    """Outcome tables of all complete games with n voters, strongest voter
    first, in chunks of shape (games, 2**n) of DEFAULT_CHUNK games."""
    if not 1 <= n <= BIG_N:
        raise ValueError(f"enumeration supports 1..{BIG_N} voters, got {n}")
    size = 1 << n
    chunk = DEFAULT_CHUNK
    buf = np.empty((chunk, size), dtype=np.uint8)
    i = 0
    for rows in _labeling_blocks(_linear_extension(n), _lower_covers(n)):
        while len(rows):
            take = min(len(rows), _UNPACK_ROWS, chunk - i)
            packed = rows[:take].view(np.uint8)
            buf[i : i + take] = np.unpackbits(packed, axis=1, count=size, bitorder="little")
            rows = rows[take:]
            i += take
            if i == chunk:
                yield buf
                buf, i = np.empty((chunk, size), dtype=np.uint8), 0
    if i:
        yield buf[:i]


def shift_minimal_families(tables: np.ndarray, n: int) -> np.ndarray:
    """Each game's shift-minimal winning coalitions, as a (games, 2**n)
    boolean matrix."""
    return _shift_family(tables, n, True)


def shift_maximal_losing_families(tables: np.ndarray, n: int) -> np.ndarray:
    """Each game's shift-maximal losing coalitions, as a (games, 2**n)
    boolean matrix."""
    return _shift_family(tables, n, False)


# Prefix counts packed one per int64: field i (bits 7i..7i+5) holds the
# i-th count, and bit 7i+6 is its guard.  A count is at most 9 and a sum
# of two at most 18, so fields never carry into each other.  n fields
# fit below the sign bit only through 9 voters.
_FIELD_BITS = 7
_MAX_TRADE_VOTERS = 63 // _FIELD_BITS
# Games per 2-trade block: at 8 voters a block's pair table is at most
# 128 x 45 x 45 int64 entries, about 2 MB.  Blocks of 256 games take no
# less time and, in an n = 8 stream, 2 MB more peak RSS.
TRADE_BLOCK = 128


@lru_cache(maxsize=None)
def _packed_prefix_counts(n: int) -> tuple[np.ndarray, int, int]:
    """(packed prefix counts of every coalition, the guard bits, a padding
    value whose sums with anything exceed every pair of real counts in
    every field, without reaching the guard bit)."""
    shifts = _FIELD_BITS * np.arange(n, dtype=np.int64)
    packed = (_prefix_counts(n).astype(np.int64) << shifts).sum(axis=1)
    guard = int((np.int64(1 << (_FIELD_BITS - 1)) << shifts).sum())
    pad = int((np.int64(31) << shifts).sum())
    return packed, guard, pad


def _packed_rows(n: int, family: np.ndarray, fill: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, sizes): row g holds the packed prefix counts of game g's
    coalitions in ascending mask order, padded with fill, and sizes[g] how
    many there are."""
    flat = np.flatnonzero(family)  # row-major: by game, masks ascending
    g, mask = flat >> n, flat & ((1 << n) - 1)
    sizes = np.bincount(g, minlength=len(family))
    rows = np.full((len(family), max(int(sizes.max(initial=0)), 1)), fill, dtype=np.int64)
    rows[g, np.arange(len(g)) - np.searchsorted(g, g)] = _packed_prefix_counts(n)[0][mask]
    return rows, sizes


@lru_cache(maxsize=None)
def _pair_indices(width: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(width), read-only: every unordered pair of columns,
    each column paired with itself included."""
    i, j = np.triu_indices(width)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _pair_sums(rows: np.ndarray) -> np.ndarray:
    """Per row, the sums of every unordered pair of its entries, each entry
    paired with itself included."""
    i, j = _pair_indices(rows.shape[1])
    return rows[:, i] + rows[:, j]


def two_trade_rejects(n: int, win: np.ndarray, lose: np.ndarray) -> np.ndarray:
    """Games that a 2-trade proves not weighted, as a boolean flag per game.

    win and lose are the shift-minimal winning and shift-maximal losing
    families.  A game is flagged when two of its shift-minimal winning
    coalitions S1, S2 and two of its shift-maximal losing ones T1, T2
    (repeats allowed) have P(S1) + P(S2) <= P(T1) + P(T2) componentwise,
    P being the prefix counts.  Weights w1 >= ... >= wn >= 0 give every
    coalition the weight d . P with d >= 0 the weight differences, so then
    w(S1) + w(S2) <= w(T1) + w(T2) < 2q <= w(S1) + w(S2): no weighted
    representation exists (Taylor & Zwicker, Proc. AMS 115, 1992).  A flag
    is therefore never wrong; an unflagged game may still not be weighted.
    The packed counts fit through _MAX_TRADE_VOTERS = 9 voters; more raise
    ValueError.
    """
    if n > _MAX_TRADE_VOTERS:
        raise ValueError(f"the 2-trade filter supports at most {_MAX_TRADE_VOTERS} voters, got {n}")
    _, guard, pad = _packed_prefix_counts(n)
    # Winning padding sums too large to fit under any losing pair; losing
    # padding is the empty coalition, which loses.
    low_rows, low_sizes = _packed_rows(n, win, pad)
    high_rows, high_sizes = _packed_rows(n, lose, 0)
    rejected = np.zeros(len(win), dtype=bool)
    # Blocks of games with equal family sizes carry little padding.
    order = np.lexsort((high_sizes, low_sizes))
    for start in range(0, len(win), TRADE_BLOCK):
        games = order[start : start + TRADE_BLOCK]
        low = _pair_sums(low_rows[games, : low_sizes[games].max()])
        high = _pair_sums(high_rows[games, : high_sizes[games].max()]) | guard
        # Fieldwise high >= low exactly when every guard bit survives the
        # subtraction; no field borrows from the next.
        diff = high[:, None, :] - low[:, :, None]
        diff &= guard
        rejected[games] = (diff == guard).any(axis=(1, 2))
    return rejected


def classify_weighted_chunk(
    n: int, win: np.ndarray, lose: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Which games of a chunk are weighted, and their certificates.

    win and lose are the chunk's shift-minimal winning and shift-maximal
    losing families (shift_minimal_families, shift_maximal_losing_families).
    Returns a boolean flag per game and one (quota, weights...) int64 row
    per weighted game, in chunk order: for each game, the reduced
    (quota, weights) that solving its weight-difference system alone, as
    a block of one, gives: games.is_weighted's certificate.

    Through 9 voters, games that two_trade_rejects proves not weighted are
    settled without an LP; the rest, and every game above 9 voters, go to
    exactlp.solve_block, LP_BLOCK systems at a time, whose answers do not
    depend on the other systems of a block.  Only the LP accepts a game,
    so the flags and certificates are those of solving every system.
    """
    weighted = np.zeros(len(win), dtype=bool)
    certs = np.zeros((len(win), n + 1), dtype=np.int64)
    if n <= _MAX_TRADE_VOTERS:
        open_games = np.flatnonzero(~two_trade_rejects(n, win, lose))
    else:
        open_games = np.arange(len(win))
    # Blocks of games with similar row counts carry less padding.
    sizes = (win.sum(axis=1) + lose.sum(axis=1))[open_games]
    order = open_games[np.argsort(sizes, kind="stable")]
    for start in range(0, len(order), LP_BLOCK):
        games = order[start : start + LP_BLOCK]
        coeffs, rhs = _difference_systems(n, win[games], lose[games])
        flags, nums, dens = solve_block(coeffs, rhs)
        weighted[games] = flags
        certs[games[flags]] = _certificates(n, coeffs[flags], nums[flags], dens[flags])
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

    Walks monotone labellings of the inclusion lattice, whose lower covers
    drop one member, and dedups by the minimal table over voter
    relabellings.  is_weighted classifies each game, certificates
    included; the 3 incomplete games are not weighted.
    """
    n = 4
    size = 1 << n
    order = sorted(range(size), key=lambda m: (m.bit_count(), m))
    removals = [
        tuple(m & ~(1 << b) for b in range(n) if (m >> b) & 1) for m in range(size)
    ]
    seen: dict[bytes, None] = {}
    for rows in _labeling_blocks(order, removals):
        for table in np.unpackbits(rows.view(np.uint8), axis=1, count=size, bitorder="little"):
            e = ExplicitGame(n, table.tobytes(), validate=False)
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
# count, then per game a u16 coalition count k followed by that many u32
# shift-minimal winning coalition masks, ascending.  A game's record is
# thus 1 + 2k u16 words: k, then each mask as its low and high half.
# ---------------------------------------------------------------------------

_MAGIC = b"VKCAT1"
_CLASS_TAGS = {"cg": 0, "wg": 1}
_TAG_CLASSES = {v: k for k, v in _CLASS_TAGS.items()}
_HEADER = struct.Struct("<6sBBQ")
# Bytes read at a time; each block's words are walked as Python lists.
_READ_BYTES = 1 << 16


class CatalogFormatError(ValueError):
    pass


def catalog_header(klass: str, n: int, count: int) -> bytes:
    """The header of a catalog file of count klass games with n voters."""
    return _HEADER.pack(_MAGIC, _CLASS_TAGS[klass], n, count)


def catalog_records(n: int, families: np.ndarray) -> np.ndarray:
    """The records of the rows of a (games, 2**n) boolean matrix marking
    each game's shift-minimal winning coalitions, as little-endian u16
    words that follow one another in a catalog file."""
    games, size = families.shape
    if size != 1 << n:
        raise ValueError(f"expected {1 << n} coalitions per game, got {size}")
    flat = np.flatnonzero(families)  # row-major: by game, masks ascending
    game = flat >> n
    counts = np.bincount(game, minlength=games)
    # Game g's record opens after g count words and two words per
    # earlier mask.  Masks are below 2**8, so every high half is 0.
    words = np.zeros(games + 2 * len(flat), dtype="<u2")
    words[np.arange(games) + 2 * (np.cumsum(counts) - counts)] = counts
    words[game + 1 + 2 * np.arange(len(flat))] = flat & (size - 1)
    return words


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


def _record_blocks(fh, path, n: int, count: int):
    """The next count game records of an n-voter catalog file, a block of
    the file at a time, each checked by _check_records.

    Yields (words, starts): the block's u16 words as a list, and the word
    offset of each whole record in it.  Raises CatalogFormatError when the
    file ends first.
    """
    tail = b""
    left = count
    while left > 0:
        more = fh.read(_READ_BYTES)
        if not more:
            raise CatalogFormatError(f"{path}: truncated game record")
        data = tail + more
        block = np.frombuffer(data, dtype="<u2", count=len(data) // 2).astype(np.int64)
        words = block.tolist()
        starts = []
        at, end = 0, len(words)
        while left and at < end:
            nxt = at + 1 + 2 * words[at]
            if nxt > end:
                break
            starts.append(at)
            at = nxt
            left -= 1
        tail = data[2 * at :]
        if starts:
            _check_records(path, n, block, starts)
            yield words, starts


def _check_records(path, n: int, block: np.ndarray, starts: list) -> None:
    """Raise CatalogFormatError unless each record opening at one of the
    word offsets lists at least one coalition, every mask in 1..2**n - 1
    (so its high half is 0), strictly increasing."""
    at = np.array(starts)
    counts = block[at]
    if counts.min() < 1:
        raise CatalogFormatError(f"{path}: a game record lists no coalition")
    ends = np.cumsum(counts)
    # Mask i of the record at word a is the u32 at word a + 1 + 2i.
    pos = np.repeat(at + 1 - 2 * (ends - counts), counts) + 2 * np.arange(ends[-1])
    low, high = block[pos], block[pos + 1]
    if high.any() or low.min() < 1 or low.max() >= 1 << n:
        raise CatalogFormatError(f"{path}: a game record holds a mask outside 1..{(1 << n) - 1}")
    steps = np.diff(low)
    steps[ends[:-1] - 1] = 1  # each record's first mask is free
    if steps.min(initial=1) < 1:
        raise CatalogFormatError(f"{path}: a game record's masks are not strictly increasing")


def _decode(words: list, starts: list) -> list[list[int]]:
    """The masks of the checked records that open at the given word
    offsets: the low halves, the high ones being 0."""
    return [words[at + 1 : at + 1 + 2 * words[at] : 2] for at in starts]


def fetch_catalog_games(path, indices: Iterable[int]) -> dict[int, CompleteGame]:
    """The games at the given positions of a catalog file, in one
    sequential scan that stops after the last of them.  Raises
    CatalogFormatError on the first position the file does not hold."""
    want = sorted({int(i) for i in indices})
    if not want:
        return {}
    out: dict[int, CompleteGame] = {}
    with open(path, "rb") as fh:
        _, n, count = _read_header(fh, path)
        missing = [i for i in want if not 0 <= i < count]
        if missing:
            raise CatalogFormatError(f"{path}: no game at index {missing[0]}")
        pos = 0
        for words, starts in _record_blocks(fh, path, n, want[-1] + 1):
            picked = want[bisect_left(want, pos) : bisect_left(want, pos + len(starts))]
            families = _decode(words, [starts[i - pos] for i in picked])
            out.update((i, CompleteGame(n, masks, validate=False)) for i, masks in zip(picked, families))
            pos += len(starts)
    return out


def _read_families(path, render) -> list:
    """render(n, families) over every block of a catalog file's records,
    concatenated, re-checking the certified count.  A byte after the
    last counted record raises CatalogFormatError."""
    out: list = []
    with open(path, "rb") as fh:
        klass, n, count = _read_header(fh, path)
        end = _HEADER.size
        for words, starts in _record_blocks(fh, path, n, count):
            out += render(n, _decode(words, starts))
            end += 2 * (starts[-1] + 1 + 2 * words[starts[-1]])
        if os.fstat(fh.fileno()).st_size != end:
            raise CatalogFormatError(f"{path}: bytes after the last game record")
    check_certified_count(klass, n, len(out))
    return out


def read_catalog(path) -> list[CompleteGame]:
    """Load a catalog file's games, re-checking the certified count."""
    return _read_families(path, lambda n, families: [CompleteGame(n, masks, validate=False) for masks in families])


def read_catalog_texts(path) -> list[str]:
    """game_to_text of every game of a catalog file, in file order, with
    no game built; the certified count is re-checked."""
    return _read_families(path, _complete_texts)
