"""Exact geometry over power vectors.

Power vectors live on the rational simplex; distances are Manhattan (L1)
or Chebyshev (L-infinity).  Vectors are reduced integer rows (numerators...,
denominator), deduplicated by one lexicographic sort (unique_rows).  Every
decision compares integer distances by exact cross-multiplication, in int64
where a bound on the magnitudes rules out overflow and in Python integers
otherwise; ties go to the lexicographically smallest vector.

VectorStore.nearest and VectorStore.index_of take an indices.PowerVector
of the store's kind and voter count, whose key() is its reduced row, and
refuse any other.  nearest scans every stored row in one vectorized pass
and builds nothing else.  GapQueries takes distinct reduced query rows, such
as a block of a tier's stored vectors, answers the exact hits in bulk by
binary search and sends the misses together down a k-d tree over keys
floor(x * scale), exact on the n! grid for Shapley-Shubik, 2**20-scaled
floors with one key unit of slack per inexact side for Banzhaf.  The tree
is in heap order, node i's children being nodes 2i + 1 and 2i + 2, with
every leaf at one depth, so that its shape follows from the row count:
it is a permutation of the rows, each split's axis and cut, and the
leaves' key boxes.  Built on the first gap query, it holds the store's
rows in its order, read into memory once; a leaf's rows are then one
slice.  Each miss descends to its leaf once, one vector step per level,
and one |difference| pass against the leaf's rows gives its exact upper
bound under every metric.

GapTracker computes a directed Hausdorff distance with the early break of
Taha and Hanbury (IEEE TPAMI 2015): a miss with some stored row strictly
closer than the running maximum cannot change the answer.  It takes the
misses highest bound first, in blocks; one pass scores each miss of a
block against the rows of its few nearest leaves by box gap and drops
those a row there refutes.  Each survivor is searched exactly over the
slices of the leaves whose key box may hold a row within its bound, the
smaller of its leaf bound and its closest row found while refuting.  The
walk stops once a bound's floor on the key grid is below the maximum's.
Which games attain the gap is read afterwards from the store row of each
game, which the tier build records.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .games import _runs
from .indices import PowerVector, decimal_str

__all__ = [
    "Metric",
    "distance",
    "VectorStore",
    "NearestResult",
    "store_from_rows",
    "unique_rows",
    "GapQueries",
    "GapTracker",
    "GapReport",
]

PBI_KEY_SCALE = 1 << 20
_LEAF_SIZE = 32
_BLOCK = 512  # misses per vectorized leaf-bound pass
_REFUTE_BLOCK = 32  # misses per vectorized refutation pass
_PROBE_LEAVES = 4  # nearest leaves a refutation pass reads per miss
_INT64_MAX = 2**63 - 1


class Metric(enum.Enum):
    L1 = "l1"
    LINF = "linf"

    @classmethod
    def parse(cls, text: str) -> "Metric":
        t = text.strip().lower()
        for m in cls:
            if t == m.value:
                return m
        raise ValueError(f"unknown metric {text!r}; expected l1 or linf")


def _as_fractions(x) -> tuple[Fraction, ...]:
    if isinstance(x, PowerVector):
        return x.fractions()
    return tuple(Fraction(v) for v in x)


def distance(x, y, metric: Metric) -> Fraction:
    """Exact distance between two power vectors (or plain rational
    sequences).  PowerVectors of different index kinds do not live in the
    same space and are rejected."""
    if isinstance(x, PowerVector) and isinstance(y, PowerVector) and x.kind != y.kind:
        raise ValueError(f"cannot compare a {x.kind} vector with a {y.kind} vector")
    fx, fy = _as_fractions(x), _as_fractions(y)
    if len(fx) != len(fy):
        raise ValueError(f"dimension mismatch: {len(fx)} vs {len(fy)}")
    diffs = [abs(a - b) for a, b in zip(fx, fy)]
    return sum(diffs, Fraction(0)) if metric is Metric.L1 else max(diffs)


def _reduced_rows(nums: np.ndarray, dens) -> np.ndarray:
    """Rows (numerators, denominator) in lowest terms, as one int matrix."""
    dens = np.broadcast_to(np.asarray(dens, dtype=np.int64), len(nums))
    rows = np.column_stack([nums.astype(np.int64), dens])
    return rows // np.gcd.reduce(rows, axis=1)[:, None]


def unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(uniq, first, inverse) of an int matrix: its distinct rows in
    lexicographic order, the index of the first row equal to each, and
    for each row the position of its distinct row.  So uniq is
    rows[first], and rows is uniq[inverse]."""
    order = np.lexsort(_sort_keys(rows)[::-1])
    ranked = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    # lexsort is stable, so each run of equal rows opens with its first row.
    return ranked[new], order[new], inverse


def _sort_keys(rows: np.ndarray) -> list[np.ndarray]:
    """Columns ordering an int matrix's rows as they compare, first
    column first; nonnegative ones are packed as many to an int64 as
    their bit width allows, so that a lexsort makes fewer passes."""
    if rows.min(initial=0) < 0:
        return list(rows.T)
    bits = max(int(rows.max(initial=0)).bit_length(), 1)
    keys = []
    for a in range(0, rows.shape[1], 63 // bits):
        key = rows[:, a]
        for col in rows.T[a + 1 : a + 63 // bits]:
            key = (key << bits) | col
        keys.append(key)
    return keys


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per int64 row, ordered as the rows are
    lexicographically: with the sign bit flipped and the bytes stored
    big-endian, comparing keys byte by byte compares the rows numerically."""
    flipped = np.ascontiguousarray(rows, dtype=np.int64).view(np.uint64) ^ np.uint64(1 << 63)
    return np.ascontiguousarray(flipped.astype(">u8")).view(f"V{8 * rows.shape[1]}").ravel()


def _exact_dtype(bound: int):
    """int64 when every integer up to bound fits, else Python integers."""
    return np.int64 if bound <= _INT64_MAX else object


def _keys(rows: np.ndarray, n: int, scale: int) -> tuple[np.ndarray, np.ndarray]:
    """floor(x * scale) per coordinate of each (numerators..., denominator)
    row, as int64, and whether any of a row's keys is inexact."""
    nums = rows[:, :n].astype(_exact_dtype(int(np.abs(rows).max(initial=0)) * scale)) * scale
    return (nums // rows[:, n:]).astype(np.int64), (nums % rows[:, n:] != 0).any(axis=1)


def _dists(rows: np.ndarray, q: np.ndarray, n: int, l1s: Sequence[bool]) -> tuple[list[np.ndarray], np.ndarray]:
    """Exact distances from rows to query rows q, broadcast, under L1 or
    Linf as each of l1s says: each distance is num / (pden * qden),
    returned as ([num per metric], pden), in q's dtype.  One coordinate at
    a time, each |difference| serving every metric: a reduction over a
    short last axis is slow."""
    rows = rows.astype(q.dtype, copy=False)
    nums = dict.fromkeys(l1s)
    for i in range(n):
        diff = np.abs(rows[..., i] * q[..., n] - q[..., i] * rows[..., n])
        for l1, num in nums.items():
            nums[l1] = diff if num is None else num + diff if l1 else np.maximum(num, diff)
    return [nums[l1] for l1 in l1s], rows[..., n]


def _less(a_num, a_den, b_num, b_den) -> np.ndarray:
    """a_num / a_den < b_num / b_den for nonnegative numerators and
    positive denominators, arrays or integers, by exact
    cross-multiplication."""
    peak_num = max(int(np.max(a_num, initial=1)), int(np.max(b_num, initial=1)))
    peak_den = max(int(np.max(a_den, initial=1)), int(np.max(b_den, initial=1)))
    # No operand or product exceeds peak_num * peak_den.
    dtype = _exact_dtype(peak_num * peak_den)
    a_num, a_den, b_num, b_den = (np.asarray(x).astype(dtype) for x in (a_num, a_den, b_num, b_den))
    return a_num * b_den < b_num * a_den


def _lookup(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Position of each key in the sorted distinct keys, or -1 where they
    lack it: one binary search per key."""
    if not len(sorted_keys):
        return np.full(len(keys), -1, dtype=np.int64)
    pos = np.searchsorted(sorted_keys, keys)
    pos[pos == len(sorted_keys)] = 0
    return np.where(sorted_keys[pos] == keys, pos, -1)


def _least_floor(num: np.ndarray, den: np.ndarray, scale: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the distances num / den, the (num, den) whose floor on
    the key grid, num * scale // den, is least: the first where several
    are."""
    pick = np.argmin(num * scale // den, axis=1)[:, None]
    return np.take_along_axis(num, pick, 1)[:, 0], np.take_along_axis(den, pick, 1)[:, 0]


class _Tree:
    """A k-d tree in heap order over the keys of rows (Friedman, Bentley
    and Finkel, ACM TOMS 1977): node i splits into nodes 2i + 1 and
    2i + 2 at the median of its rows along its widest key axis.  Every
    leaf lies at one depth: the least at which no leaf holds more than
    _LEAF_SIZE rows or, where a leaf would then be empty (at a _LEAF_SIZE
    of 1), the greatest at which none is.  Node j of level d holds
    perm[(j * count) >> d : ((j + 1) * count) >> d], so the leaves are in
    row order: leaf l holds perm[start[l]:stop[l]], the rows
    rows[start[l]:stop[l]], their keys in the box [lo[:, l], hi[:, l]].
    On axis[i], split node i's left rows have keys <= cut[i] and its
    right rows keys >= cut[i].  A level costs one reduceat, bounding
    every node, and one argpartition per node of the keys, which are
    permuted in place as perm is.  slack is 1 when some key is inexact."""

    def __init__(self, rows: np.ndarray, n: int, scale: int):
        keys, inexact = _keys(rows, n, scale)
        self.slack = int(inexact.any())
        count = len(rows)
        self.depth = min(((count - 1) // _LEAF_SIZE).bit_length(), count.bit_length() - 1)
        self.perm = np.arange(count, dtype=np.int64)
        self.axis = np.zeros(2**self.depth - 1, dtype=np.intp)
        self.cut = np.zeros(2**self.depth - 1, dtype=np.int64)
        for d in range(self.depth + 1):
            bounds = (np.arange(2**d + 1) * count) >> d
            lo, hi = np.minimum.reduceat(keys, bounds[:-1]), np.maximum.reduceat(keys, bounds[:-1])
            if d == self.depth:
                break
            axes = np.argmax(hi - lo, axis=1)
            mids = (np.arange(1, 2 ** (d + 1), 2) * count) >> (d + 1)
            for a, b, m, axis in zip(bounds[:-1].tolist(), bounds[1:].tolist(), mids.tolist(), axes.tolist()):
                order = np.argpartition(keys[a:b, axis], m - a)
                keys[a:b] = keys[a:b][order]
                self.perm[a:b] = self.perm[a:b][order]
            level = slice(2**d - 1, 2 ** (d + 1) - 1)
            self.axis[level], self.cut[level] = axes, keys[mids, axes]
        self.start, self.stop = bounds[:-1], bounds[1:]
        self.lo, self.hi = np.ascontiguousarray(lo.T), np.ascontiguousarray(hi.T)
        self.rows = np.ascontiguousarray(rows[self.perm])

    def leaves(self, keys: np.ndarray) -> np.ndarray:
        """The leaf each key row descends to, one vector step per level: a
        key below a node's cut on its axis goes left, any other right."""
        node = np.zeros(len(keys), dtype=np.int64)
        at = np.arange(len(keys))
        for _ in range(self.depth):
            node = 2 * node + 1 + (keys[at, self.axis[node]] >= self.cut[node])
        return node - (2**self.depth - 1)

    def gaps(self, keys: np.ndarray, l1: bool) -> np.ndarray:
        """Key distance from each key row to each leaf's box, under L1 or
        Linf: one row per key, one column per leaf.  One axis at a time,
        so that no (keys, leaves, axes) block is held."""
        gap = np.zeros((len(keys), len(self.start)), dtype=np.int64)
        for lo, hi, key in zip(self.lo, self.hi, keys.T[:, :, None]):
            off = lo - key
            np.maximum(off, key - hi, out=off)
            np.maximum(off, 0, out=off)
            if l1:
                gap += off
            else:
                np.maximum(gap, off, out=gap)
        return gap

    def points(self, leaves: np.ndarray) -> np.ndarray:
        """Row positions of the leaves in each row of leaves, as one row of
        equal width each: a leaf shorter than the longest repeats its last
        row."""
        first, last = self.start[leaves][..., None], self.stop[leaves][..., None] - 1
        width = int((last - first).max()) + 1
        return np.minimum(first + np.arange(width), last).reshape(len(leaves), -1)


class NearestResult(NamedTuple):
    index: int | None
    dist: Fraction | None
    aborted: bool


class VectorStore:
    """Deduplicated power vectors of one kind, searchable exactly.

    rows are reduced (numerators..., denominator) per vector, distinct
    and in lexicographic order, as store_from_rows makes them and a tier's
    store files hold them; reps maps each stored vector back to the first
    catalog index attaining it.
    """

    def __init__(self, kind: str, n: int, rows: np.ndarray, reps: np.ndarray):
        self.kind = kind
        self.n = n
        self.rows = rows
        self.reps = reps
        # Reduced Shapley-Shubik denominators all divide n!, so their keys
        # on the n! grid are exact.
        self.scale = math.factorial(n) if kind == "ssi" else PBI_KEY_SCALE
        self.peak = int(np.abs(rows).max(initial=0))
        self._sorted_keys: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def vector(self, i: int) -> PowerVector:
        r = self.rows[i]
        return PowerVector(self.kind, [int(x) for x in r[: self.n]], int(r[self.n]))

    def find_rows(self, rows: np.ndarray) -> np.ndarray:
        """Store index of each reduced (numerators..., denominator) row,
        or -1 where the store does not hold it; one binary search per row
        over the store's sorted rows."""
        if self._sorted_keys is None:
            self._sorted_keys = _row_keys(self.rows)
        return _lookup(self._sorted_keys, _row_keys(rows))

    def _query(self, vector: PowerVector) -> tuple[int, ...]:
        """The vector's reduced row, if it is of the store's kind and
        voter count."""
        if (vector.kind, vector.n) != (self.kind, self.n):
            raise ValueError(
                f"cannot query a store of {self.n}-voter {self.kind} vectors with a {vector.n}-voter {vector.kind} vector"
            )
        return vector.key()

    def index_of(self, vector: PowerVector) -> int | None:
        """Store index of this exact vector, or None."""
        i = int(self.find_rows(np.array([self._query(vector)], dtype=np.int64))[0])
        return i if i >= 0 else None

    @cached_property
    def _leaves(self) -> _Tree:
        """The k-d tree over the rows' keys, holding the rows in its order,
        built and read into memory on first use."""
        return _Tree(self.rows, self.n, self.scale)

    def _dtype(self, qpeak: int):
        """Exact dtype for searches with simplex queries of entries up to
        qpeak: no product they form exceeds n * q * p * max(p, scale)."""
        return _exact_dtype(self.n * self.peak * qpeak * max(self.peak, self.scale))

    def _closest(self, rows: np.ndarray, idx: np.ndarray, q: np.ndarray, l1: bool) -> tuple[list[int], int, int]:
        """All the stored rows idx, whose values are rows, nearest to the
        query row q, and their distance as (numerator, denominator)."""
        (num,), pden = _dists(rows, q, self.n, (l1,))
        # Floors on a grid are monotone in the distances, so the nearest
        # rows are among those of the smallest floor.
        floor = num * self.scale // pden
        k = min(np.flatnonzero(floor == floor.min()).tolist(), key=lambda j: Fraction(int(num[j]), int(pden[j])))
        return idx[num * pden[k] == num[k] * pden].tolist(), int(num[k]), int(pden[k]) * int(q[self.n])

    def _lex_first(self, tied: list[int]) -> int:
        return min(tied, key=lambda i: self.vector(i).fractions())

    def _search(self, q: np.ndarray, key: np.ndarray, inexact: bool, bound: tuple[int, int], l1: bool):
        """_closest() over the leaves whose key box may hold a row within
        bound = (num, den) of q, as some row must be.  key is q's key row,
        inexact when a key of q is; each inexact side lets a key distance
        overstate a true one by up to a key unit per coordinate."""
        tree = self._leaves
        slack = (tree.slack + inexact) * (self.n if l1 else 1)
        gap = tree.gaps(key[None], l1)[0].astype(q.dtype) - slack
        held = np.flatnonzero(gap * bound[1] <= bound[0] * self.scale)
        pos = _runs(tree.start[held], tree.stop[held])
        return self._closest(tree.rows[pos], tree.perm[pos], q, l1)

    def _probe(self, q: np.ndarray, keys: np.ndarray, l1: bool) -> tuple[np.ndarray, np.ndarray]:
        """Exact distances from each query row of q, whose key row is in
        keys, to the rows of its _PROBE_LEAVES nearest leaves by key-box
        gap: (numerators, denominators), one row per query."""
        tree = self._leaves
        gap = tree.gaps(keys, l1)
        near = min(_PROBE_LEAVES, gap.shape[1])
        rows = tree.rows[tree.points(np.argpartition(gap, near - 1, axis=1)[:, :near])]
        (num,), pden = _dists(rows, q[:, None, :], self.n, (l1,))
        return num, pden * q[:, self.n, None]

    def nearest(self, vector: PowerVector, metric: Metric, stop_below: Fraction | None = None) -> NearestResult:
        """Closest stored vector to this one: one exact scan of every row.

        Ties resolve to the lexicographically smallest vector.  The result
        is flagged as aborted when stop_below is given and the distance is
        strictly below it, where a search may give up on a query.
        """
        key = self._query(vector)
        if not len(self.rows):
            raise ValueError("empty store")
        q = np.array(key, dtype=self._dtype(max(key)))
        tied, num, dist_den = self._closest(self.rows, np.arange(len(self.rows)), q, metric is Metric.L1)
        dist = Fraction(num, dist_den)
        return NearestResult(self._lex_first(tied), dist, stop_below is not None and dist < stop_below)


def store_from_rows(kind: str, n: int, nums: np.ndarray, dens) -> VectorStore:
    """Dedup per-game vector rows into a searchable store; reps point back
    at the first row attaining each vector."""
    uniq, first, _ = unique_rows(_reduced_rows(nums, dens))
    return VectorStore(kind, n, uniq, first)


@dataclass
class GapReport:
    """Worst-case gap between a class of games and the weighted store.

    attaining holds one (index, power vector) pair per query whose nearest
    weighted vector sits exactly at the gap, as GapTracker.report returns
    it.  pipeline.omega_tier queries a tier's distinct vectors, then
    finds every complete game whose vector sits at an attaining store row
    and attaches the game, making the pairs (catalog index, game, power
    vector) triples; it sets nearest_game to the weighted game at
    nearest_index.  nearest_vector is the stored vector nearest the
    smallest attaining row of the first chunk to reach the gap; omega_tier
    feeds the store's rows in lexicographic order, so that row is the
    lexicographically smallest attaining vector, whatever the chunk size.
    """

    n: int
    kind: str
    metric: Metric
    omega: Fraction
    decimal: str
    attaining: list = field(default_factory=list)
    nearest_vector: PowerVector | None = None
    nearest_index: int | None = None
    nearest_game: object = None


class GapQueries:
    """Distinct reduced query rows, hit-tested and bounded once for every
    tracker over the store.  rows are the queries the store lacks, at
    positions miss of the input rows.  Each miss descends the store's k-d
    tree to its leaf once; bounds[metric] holds its exact upper bound
    (num, den) under each metric, the distance of the leaf point whose
    distance has the smallest floor on the key grid."""

    def __init__(self, store: VectorStore, rows: np.ndarray, metrics: Sequence[Metric]):
        self.miss = np.flatnonzero(store.find_rows(rows) < 0)
        self.rows = rows[self.miss]
        self.bounds: dict[Metric, tuple[np.ndarray, np.ndarray]] = {}
        if not len(self.rows):
            return
        if not len(store):
            raise ValueError("empty store")
        self.keys, self.inexact = _keys(self.rows, store.n, store.scale)
        self.q = self.rows.astype(store._dtype(int(np.abs(self.rows).max())))
        blocks = [self._leaf_bounds(store, a, metrics) for a in range(0, len(self.q), _BLOCK)]
        for metric in metrics:
            self.bounds[metric] = tuple(np.concatenate(part) for part in zip(*(block[metric] for block in blocks)))

    def _leaf_bounds(self, store: VectorStore, a: int, metrics: Sequence[Metric]) -> dict:
        """The bounds of the block of misses that opens at a: per metric,
        (num, den) of the distance of the leaf point whose distance has
        the smallest floor."""
        tree, n = store._leaves, store.n
        q, keys = self.q[a : a + _BLOCK], self.keys[a : a + _BLOCK]
        rows = tree.rows[tree.points(tree.leaves(keys))]
        nums, pden = _dists(rows, q[:, None, :], n, [m is Metric.L1 for m in metrics])
        out = {}
        for metric, num in zip(metrics, nums):
            num, den = _least_floor(num, pden, store.scale)
            out[metric] = num, den * q[:, n]
        return out


class GapTracker:
    """Running maximum of min-distances to a weighted store.

    Feed query rows in chunks.  Query vectors the store holds are at
    distance 0 and are set aside in bulk.  A miss with some stored vector
    strictly closer than the running maximum cannot affect the final
    value or the attaining set (ties never drop).  So the misses are taken
    highest leaf bound first, in blocks of _REFUTE_BLOCK: those of a block
    whose bound reaches the maximum are scored in one pass against the
    rows of their _PROBE_LEAVES nearest leaves, and each one a row there
    refutes is dropped.  The rest are searched exactly, each within the
    smaller of its leaf bound and its closest row there.  The walk stops
    at the first block whose bound's floor on the key grid is below the
    maximum's: floors are monotone, so no later bound reaches it.
    """

    def __init__(self, wg_store: VectorStore, metric: Metric):
        self.store = wg_store
        self.metric = metric
        self.best = Fraction(0)
        self.attaining: list = []  # (global index, vector)
        self.nearest_index: int | None = None
        self.nearest_vector: PowerVector | None = None

    def feed(self, chunk: GapQueries, offset: int = 0) -> None:
        """Feed a chunk that GapQueries has bounded under this tracker's
        metric; its input row i is reported as index offset + i."""
        store, n, rows = self.store, self.store.n, chunk.rows
        if not len(rows):
            return
        l1 = self.metric is Metric.L1
        top_num, top_den = self.best.numerator, self.best.denominator
        bound_num, bound_den = chunk.bounds[self.metric]
        # Highest bound first, by the bounds' floors on the key grid: each
        # search raises the threshold that the next bounds must reach.
        floor = bound_num * store.scale // bound_den
        order = np.argsort(-floor, kind="stable")
        top = []
        for a in range(0, len(order), _REFUTE_BLOCK):
            block = order[a : a + _REFUTE_BLOCK]
            if floor[block[0]] < top_num * store.scale // top_den:
                break
            block = block[~_less(bound_num[block], bound_den[block], top_num, top_den)]
            if not len(block):
                continue
            block, nums, dens = self._refute(chunk, block, top_num, top_den)
            for u, num, den in zip(block.tolist(), nums.tolist(), dens.tolist()):
                if num * top_den < top_num * den:
                    continue
                tied, num, den = store._search(chunk.q[u], chunk.keys[u], bool(chunk.inexact[u]), (num, den), l1)
                if num * top_den > top_num * den:
                    top, top_num, top_den = [], num, den
                if num * top_den == top_num * den:
                    top.append((u, tied))
        if not top:
            return
        top.sort()
        members = [
            (offset + int(chunk.miss[u]), PowerVector(store.kind, rows[u, :n].tolist(), int(rows[u, n]))) for u, _ in top
        ]
        gap = Fraction(top_num, top_den)
        if gap > self.best:
            near = store._lex_first(top[0][1])
            self.best, self.attaining = gap, members
            self.nearest_index, self.nearest_vector = int(store.reps[near]), store.vector(near)
        else:
            self.attaining.extend(members)

    def _refute(self, chunk: GapQueries, block: np.ndarray, top_num: int, top_den: int):
        """The misses of block that no row of their nearest leaves is
        strictly closer to than top_num / top_den, and the bound of each as
        (numerators, denominators): the smaller of its leaf bound and the
        distance of its row there whose distance has the smallest floor."""
        store = self.store
        num, den = store._probe(chunk.q[block], chunk.keys[block], self.metric is Metric.L1)
        keep = ~_less(num, den, top_num, top_den).any(axis=1)
        block, num, den = block[keep], num[keep], den[keep]
        num, den = _least_floor(num, den, store.scale)
        bound_num, bound_den = (part[block] for part in chunk.bounds[self.metric])
        closer = _less(num, den, bound_num, bound_den)
        return block, np.where(closer, num, bound_num), np.where(closer, den, bound_den)

    def report(self) -> GapReport:
        self.attaining.sort(key=lambda pair: pair[0])
        return GapReport(
            n=self.store.n,
            kind=self.store.kind,
            metric=self.metric,
            omega=self.best,
            decimal=decimal_str(self.best),
            attaining=self.attaining if self.best > 0 else [],
            nearest_vector=self.nearest_vector,
            nearest_index=self.nearest_index,
        )
