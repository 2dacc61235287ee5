"""Exact geometry over power vectors.

Power vectors live on the rational simplex; distances are Manhattan (L1)
or Chebyshev (L-infinity).  Vectors are handled as reduced integer rows
(numerators..., denominator), deduplicated by one lexicographic sort
(unique_rows).  Gap queries first answer exact hits in bulk: a query row
already in the weighted store is at distance 0, found by a binary search
over the store's sorted rows.  Only the misses go to the nearest-neighbour
search, a k-d tree over integer keys: Shapley-Shubik vectors are integer
numerators over n!, so their keys are exact; Banzhaf vectors are keyed by
2**20-scaled floors, and every bound carries a slack of one key unit per
inexact side so the tree can only over-visit, never wrongly prune.  Final
comparisons are exact integer cross-multiplications; ties go to the
lexicographically smallest vector, so results are deterministic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .indices import PowerVector, decimal_str

__all__ = [
    "Metric",
    "distance",
    "VectorStore",
    "NearestResult",
    "store_from_rows",
    "unique_rows",
    "count_distinct_rows",
    "GapTracker",
    "GapReport",
]

PBI_KEY_SCALE = 1 << 20
_LEAF_SIZE = 32


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


def _reduced_rows(nums: np.ndarray, dens) -> tuple[np.ndarray, np.ndarray]:
    """Rows (numerators, denominator) in lowest terms, as one int matrix."""
    count, n = nums.shape
    if np.isscalar(dens) or getattr(dens, "ndim", 1) == 0:
        dcol = np.full(count, int(dens), dtype=np.int64)
    else:
        dcol = dens.astype(np.int64)
    rows = np.concatenate([nums.astype(np.int64), dcol[:, None]], axis=1)
    g = np.gcd.reduce(rows, axis=1)
    return rows // g[:, None], dcol


def unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(uniq, first, inverse) of an int matrix: its distinct rows in
    lexicographic order, the index of the first row equal to each, and
    for each row the position of its distinct row.  So uniq is
    rows[first], and rows is uniq[inverse]."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    # lexsort is stable, so each run of equal rows opens with its first row.
    return ranked[new], order[new], inverse


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per int64 row, ordered as the rows are
    lexicographically: with the sign bit flipped and the bytes stored
    big-endian, comparing keys byte by byte compares the rows numerically."""
    flipped = np.ascontiguousarray(rows, dtype=np.int64).view(np.uint64) ^ np.uint64(1 << 63)
    return np.ascontiguousarray(flipped.astype(">u8")).view(f"V{8 * rows.shape[1]}").ravel()


class _KDNode:
    __slots__ = ("lo", "hi", "left", "right", "idx", "pts")

    def __init__(self, lo, hi, left=None, right=None, idx=None, pts=None):
        self.lo = lo
        self.hi = hi
        self.left = left
        self.right = right
        self.idx = idx
        self.pts = pts


class _Abort(Exception):
    pass


class NearestResult:
    __slots__ = ("index", "dist", "aborted")

    def __init__(self, index: int | None, dist: Fraction | None, aborted: bool):
        self.index = index
        self.dist = dist
        self.aborted = aborted


class VectorStore:
    """Deduplicated power vectors of one kind, searchable exactly.

    rows are reduced (numerators..., denominator) per vector, distinct
    and in lexicographic order, as store_from_rows makes them; reps maps
    each stored vector back to the first catalog index attaining it.
    """

    def __init__(self, kind: str, n: int, rows: np.ndarray, reps: np.ndarray):
        self.kind = kind
        self.n = n
        self.rows = rows
        self.reps = reps
        if kind == "ssi":
            # Reduced denominators all divide n!, so numerators rescale to
            # exact keys on the n! grid.
            self.scale = math.factorial(n)
            keys = rows[:, :n] * (self.scale // rows[:, n : n + 1])
            self.point_slack = 0
        else:
            self.scale = PBI_KEY_SCALE
            keys = (rows[:, :n] * self.scale) // rows[:, n : n + 1]
            self.point_slack = 1
        self._root = self._build(keys) if len(rows) else None
        self._sorted_keys: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def vector(self, i: int) -> PowerVector:
        r = self.rows[i]
        return PowerVector(self.kind, [int(x) for x in r[: self.n]], int(r[self.n]))

    # -- construction -----------------------------------------------------

    def _build(self, keys: np.ndarray) -> _KDNode:
        """Median splits along the widest axis, one tree level at a time.

        Each node's points sit in one contiguous block of a permuted copy
        of keys, so one reduceat per level bounds every block, a split is
        one argpartition of its block, and a leaf keeps its block as a view.
        """
        count = len(keys)
        pts = keys.copy()
        perm = np.arange(count, dtype=np.int64)
        starts = np.zeros(1, dtype=np.int64)
        stops = np.full(1, count, dtype=np.int64)
        levels = []
        while len(starts):
            # reduceat over [start, stop) pairs; the odd results are discarded.
            cuts = np.stack([starts, stops], axis=1).ravel()
            cuts = cuts[cuts < count]
            lo = np.minimum.reduceat(pts, cuts)[::2]
            hi = np.maximum.reduceat(pts, cuts)[::2]
            split = (stops - starts > _LEAF_SIZE) & (lo != hi).any(axis=1)
            mids = starts + (stops - starts) // 2
            axes = np.argmax(hi - lo, axis=1)
            for a, b, m, axis in zip(
                starts[split].tolist(), stops[split].tolist(), mids[split].tolist(), axes[split].tolist()
            ):
                block = pts[a:b]
                order = np.argpartition(block[:, axis], m - a)
                block[:] = block[order]
                perm[a:b] = perm[a:b][order]
            # Bounds as plain tuples: the search touches them in tight loops.
            levels.append((starts.tolist(), stops.tolist(), lo.tolist(), hi.tolist(), split.tolist()))
            starts = np.stack([starts[split], mids[split]], axis=1).ravel()
            stops = np.stack([mids[split], stops[split]], axis=1).ravel()
        below: list[_KDNode] = []
        for starts, stops, lo, hi, split in reversed(levels):
            kids = iter(below)
            below = [
                _KDNode(tuple(low), tuple(high), left=next(kids), right=next(kids))
                if inner
                else _KDNode(tuple(low), tuple(high), idx=perm[a:b], pts=pts[a:b])
                for a, b, low, high, inner in zip(starts, stops, lo, hi, split)
            ]
        return below[0]

    # -- membership --------------------------------------------------------

    def find_rows(self, rows: np.ndarray) -> np.ndarray:
        """Store index of each reduced (numerators..., denominator) row,
        or -1 where the store does not hold it; one binary search per row
        over the store's sorted rows."""
        if not len(self.rows):
            return np.full(len(rows), -1, dtype=np.int64)
        if self._sorted_keys is None:
            self._sorted_keys = _row_keys(self.rows)
        keys = _row_keys(rows)
        pos = np.searchsorted(self._sorted_keys, keys)
        pos[pos == len(self.rows)] = 0
        return np.where(self._sorted_keys[pos] == keys, pos, -1)

    def index_of(self, nums: Sequence[int], den: int) -> int | None:
        """Store index of this exact vector, or None."""
        g = math.gcd(int(den), *(int(x) for x in nums))
        row = np.array([[int(x) // g for x in nums] + [int(den) // g]], dtype=np.int64)
        i = int(self.find_rows(row)[0])
        return i if i >= 0 else None

    # -- search ------------------------------------------------------------

    def nearest(
        self,
        nums: Sequence[int],
        den: int,
        metric: Metric,
        stop_below: Fraction | None = None,
    ) -> NearestResult:
        """Closest stored vector to nums/den, by exact comparison.

        Ties resolve to the lexicographically smallest vector.  When
        stop_below is given, the search may abandon a query as soon as the
        running best drops strictly below it; the result is then flagged
        and its distance is only an upper bound.
        """
        if self._root is None:
            raise ValueError("empty store")
        n = self.n
        qnums = [int(x) for x in nums]
        qden = int(den)
        qkeys = np.array([x * self.scale // qden for x in qnums], dtype=np.int64)
        exact_query = all(x * self.scale % qden == 0 for x in qnums)
        sigma = self.point_slack + (0 if exact_query else 1)
        slack = sigma * (n if metric is Metric.L1 else 1)
        exact_grid = sigma == 0
        scale = self.scale

        best_idx = -1
        best_num = 0
        best_den = 1
        stop_num = stop_below.numerator if stop_below is not None else None
        stop_den = stop_below.denominator if stop_below is not None else 1

        def exact_dist(i: int) -> tuple[int, int]:
            row = self.rows[i]
            pden = int(row[n])
            if metric is Metric.L1:
                acc = 0
                for a in range(n):
                    acc += abs(int(row[a]) * qden - qnums[a] * pden)
                return acc, pden * qden
            worst = 0
            for a in range(n):
                worst = max(worst, abs(int(row[a]) * qden - qnums[a] * pden))
            return worst, pden * qden

        def lex_less(i: int, j: int) -> bool:
            ri, rj = self.rows[i], self.rows[j]
            di, dj = int(ri[n]), int(rj[n])
            for a in range(n):
                lhs = int(ri[a]) * dj
                rhs = int(rj[a]) * di
                if lhs != rhs:
                    return lhs < rhs
            return False

        def consider(i: int, dnum: int, dden: int):
            nonlocal best_idx, best_num, best_den
            if best_idx >= 0:
                cmp = dnum * best_den - best_num * dden
                if cmp > 0:
                    return
                if cmp == 0:
                    if lex_less(i, best_idx):
                        best_idx = i
                    return
            best_idx, best_num, best_den = i, dnum, dden
            if stop_num is not None and best_num * stop_den < stop_num * best_den:
                raise _Abort

        qk = [int(x) for x in qkeys]
        l1 = metric is Metric.L1

        def box_gap(node: _KDNode) -> int:
            lo, hi = node.lo, node.hi
            acc = 0
            for a in range(n):
                q = qk[a]
                if q < lo[a]:
                    g = lo[a] - q
                elif q > hi[a]:
                    g = q - hi[a]
                else:
                    continue
                if l1:
                    acc += g
                elif g > acc:
                    acc = g
            return acc

        def prunable(gap: int) -> bool:
            if best_idx < 0:
                return False
            return (gap - slack) * best_den > best_num * scale

        def visit(node: _KDNode):
            if node.idx is not None:
                d = np.abs(node.pts - qkeys)
                kd = d.sum(axis=1) if metric is Metric.L1 else d.max(axis=1)
                for pos in np.argsort(kd, kind="stable"):
                    k = int(kd[pos])
                    if prunable(k):
                        break
                    i = int(node.idx[pos])
                    if exact_grid:
                        consider(i, k, scale)
                    else:
                        consider(i, *exact_dist(i))
                return
            children = [node.left, node.right]
            gaps = [box_gap(c) for c in children]
            if gaps[1] < gaps[0]:
                children.reverse()
                gaps.reverse()
            for c, gap in zip(children, gaps):
                if not prunable(gap):
                    visit(c)

        try:
            visit(self._root)
        except _Abort:
            return NearestResult(best_idx, Fraction(best_num, best_den), True)
        return NearestResult(best_idx, Fraction(best_num, best_den), False)


def store_from_rows(kind: str, n: int, nums: np.ndarray, dens) -> VectorStore:
    """Dedup per-game vector rows into a searchable store; reps point back
    at the first row attaining each vector."""
    rows, _ = _reduced_rows(nums, dens)
    uniq, first, _ = unique_rows(rows)
    return VectorStore(kind, n, uniq, first)


def count_distinct_rows(nums: np.ndarray, dens) -> int:
    """Number of distinct vectors among the rows nums / dens."""
    rows, _ = _reduced_rows(nums, dens)
    return len(unique_rows(rows)[0])


@dataclass
class GapReport:
    """Worst-case gap between a class of games and the weighted store.

    attaining holds one (catalog index, power vector) pair per game whose
    nearest weighted vector sits exactly at the gap, as GapTracker.report
    returns it; pipeline.omega_tier attaches each game, making the pairs
    (catalog index, game, power vector) triples, and sets nearest_game to
    the weighted game at nearest_index.
    """

    n: int
    kind: str
    metric: Metric
    omega: Fraction
    decimal: str
    attaining: list = field(default_factory=list)
    worst_vector: PowerVector | None = None
    nearest_vector: PowerVector | None = None
    nearest_index: int | None = None
    nearest_game: object = None


class GapTracker:
    """Running maximum of min-distances to a weighted store.

    Feed catalog data in chunks.  Query vectors the store holds are at
    distance 0 and are set aside in bulk; the rest are searched one by
    one, abandoned early once they fall strictly below the running
    maximum, which cannot affect the final value or the attaining set
    (ties never abort).
    """

    def __init__(self, wg_store: VectorStore, metric: Metric):
        self.store = wg_store
        self.metric = metric
        self.best = Fraction(0)
        self.attaining: list = []  # (global index, vector)
        self.worst_vector: PowerVector | None = None
        self.nearest_index: int | None = None
        self.nearest_vector: PowerVector | None = None

    def update(self, nums: np.ndarray, dens, offset: int = 0) -> None:
        """Row i is reported as index offset + i."""
        n = self.store.n
        rows, _ = _reduced_rows(nums, dens)
        uniq, _, inverse = unique_rows(rows)
        for u in np.flatnonzero(self.store.find_rows(uniq) < 0).tolist():
            qnums = uniq[u, :n].tolist()
            qden = int(uniq[u, n])
            res = self.store.nearest(
                qnums, qden, self.metric, stop_below=self.best if self.best > 0 else None
            )
            if res.aborted or res.dist < self.best:
                continue
            vec = PowerVector(self.store.kind, qnums, qden)
            members = [(offset + int(g), vec) for g in np.nonzero(inverse == u)[0]]
            if res.dist > self.best:
                self.best = res.dist
                self.attaining = members
                self.worst_vector = vec
                self.nearest_index = int(self.store.reps[res.index])
                self.nearest_vector = self.store.vector(res.index)
            else:
                self.attaining.extend(members)

    def report(self, n: int | None = None) -> GapReport:
        self.attaining.sort(key=lambda pair: pair[0])
        return GapReport(
            n=n if n is not None else self.store.n,
            kind=self.store.kind,
            metric=self.metric,
            omega=self.best,
            decimal=decimal_str(self.best),
            attaining=self.attaining if self.best > 0 else [],
            worst_vector=self.worst_vector,
            nearest_vector=self.nearest_vector,
            nearest_index=self.nearest_index,
        )

