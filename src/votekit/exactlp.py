"""Exact feasibility for small rational linear systems, many at a time.

Phase-one simplex over all-integer tableaux, run on a block of systems
in lockstep.  A block is a numpy array of shape (rows + 1, columns + 1,
systems): one tableau per system, its last row the objective (the sum of
the artificial-carrying rows) and its last column the right-hand side.
Systems come last, so each whole-block step runs along a contiguous row
of systems rather than along a tableau row of a dozen entries.  Systems
with fewer rows are padded with zero rows, which stay zero and never
leave the basis.

* Fraction-free pivots (Bareiss, Edmonds; the scheme of Avis's lrs): an
  entry becomes (entry * pivot - row * col) / previous pivot, a division
  that is always exact, so entries stay integers and floats never
  appear.  x is read off as basic right-hand side over the last pivot.
* A condensed tableau: only nonbasic columns are stored.  A pivot swaps
  the entering and leaving variables' labels; when an artificial leaves,
  its column is zeroed and never enters again, since artificials never
  re-enter and their entries are never read.
* Bland's rule, per system exactly as a one-system solver would apply
  it: the entering variable is the smallest-index improving one, and the
  leaving row minimises the ratio, ties going to the smallest basis index
  (_leaving_rows).  On the int16 rung each ratio r / t has r, t < 2**7,
  so a precomputed table of their exact ranks turns the ratio test into
  one lookup and one argmin; on the wider rungs a pairwise tournament of
  exact cross-multiplications finds the same row.  Every system
  therefore makes the same pivots and reaches the same vertex whatever
  block it is solved in; finished systems drop out of the block.
* The narrowest exact integer width: before each pivot the block's peak
  |entry| picks the first rung of _LADDER whose guard it is below (int16
  below 2**7, int32 below 2**15, int64 below 2**31), so every product and
  every entry * pivot - row * col fits the rung's width.  A block only
  moves up; past the last rung it continues in dtype=object (Python
  integers).
* Exact division by 2-adic inverses (Jebelean, J. Symbolic Comput. 15,
  1993): on a fixed-width rung the division by the previous pivot
  d = 2**s * o (o odd) is folded into the update as a wrapping
  multiplication by the inverse of o modulo 2**bits, then an arithmetic
  shift right by s.  The division is exact and the guard keeps every
  dividend below 2**(bits - 1), so the wrapped product is the true
  quotient times 2**s.  The object rung keeps floor division.

The systems are weight-difference systems of complete games: dozens of
rows over n + 1 <= 15 variables, a chunk's in blocks
(enumeration.classify_weighted_chunk) or one game's alone
(games.is_weighted), which solve_nonneg_geq solves as a block of one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = ["solve_nonneg_geq", "solve_block"]

# (dtype, guard) rungs: entries below the guard in absolute value keep
# entry * pivot - row * col below 2**(bits - 1).
_LADDER = ((np.int16, 1 << 7), (np.int32, 1 << 15), (np.int64, 1 << 31))
_POWERS = np.int64(1) << np.arange(63, dtype=np.int64)


def _rung(start: int, *arrays: np.ndarray) -> int:
    """The first rung from start whose guard exceeds every |entry| of the
    arrays; len(_LADDER) means dtype=object."""
    peak = max((max(int(a.max()), -int(a.min())) for a in arrays if a.size), default=0)
    while start < len(_LADDER) and peak >= _LADDER[start][1]:
        start += 1
    return start


def _exact_divisor(d: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Per positive divisor d = 2**s * o (o odd), the inverse of o modulo
    2**bits and s, both as dtype: for every multiple x of d that fits
    dtype, (x * inverse, wrapping) >> s is x // d."""
    low = d & -d  # the lowest set bit, 2**s
    odd = d // low
    # (3 * odd) ^ 2 is the inverse modulo 2**5, and each Newton step
    # doubles the correct low bits: 10, 20, 40, 80.
    inv = (3 * odd) ^ 2
    correct = 5
    while correct < 8 * inv.itemsize:
        inv *= 2 - odd * inv
        correct *= 2
    return inv, np.searchsorted(_POWERS, low).astype(dtype)


@lru_cache(maxsize=None)
def _ratio_keys() -> np.ndarray:
    """Per index r * 2**7 + t with 0 <= r, t < 2**7, the exact rank of the
    ratio r / t among all such ratios, shifted left by 32 bits; t = 0 (an
    ineligible row) ranks above every ratio.  Read-only.

    Two distinct ratios with denominators below 2**7 differ by more than
    2**-14, so floor(r * 2**28 / t) orders them strictly and gives equal
    ratios equal values; its dense rank is the ratio's rank.
    """
    index = np.arange(128 * 128, dtype=np.int64)
    r, t = index >> 7, index & 127
    scaled = np.where(t > 0, (r << 28) // np.maximum(t, 1), 1 << 36)
    keys = np.unique(scaled, return_inverse=True)[1].astype(np.int64) << 32
    keys.flags.writeable = False
    return keys


def _ranked_rows(t: np.ndarray, r: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_leaving_rows on the int16 rung, where every eligible row has
    0 <= r < 2**7 and 0 < t < 2**7: each row's ratio rank from
    _ratio_keys, plus its basis index, is one key, and the least key wins."""
    # r >= 0, so an ineligible row (t <= 0) reads index r * 2**7, t = 0.
    key = _ratio_keys().take(r << 7 | np.maximum(t, 0))
    key += basis
    row = key.argmin(axis=0)
    return row, np.maximum(t[row, np.arange(len(row))], 0)


def _tournament_rows(t: np.ndarray, r: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_leaving_rows by a pairwise tournament of exact cross-multiplications.

    Keys order by basis index and carry the row in their low bits.
    Ineligible rows read 1 / 0, above every eligible ratio; an odd height
    puts its middle row in two pairs.
    """
    m = t.shape[0]
    bits = m.bit_length()
    key = basis << bits | np.arange(m)[:, None]
    ineligible = t <= 0
    t, r = np.where(ineligible, 0, t), np.where(ineligible, 1, r)
    while m > 1:
        h = (m + 1) >> 1
        lhs, rhs = r[:h] * t[m - h :], r[m - h :] * t[:h]
        first = (lhs < rhs) | ((lhs == rhs) & (key[:h] < key[m - h :]))
        t, r, key = (np.where(first, a[:h], a[m - h :]) for a in (t, r, key))
        m = h
    return key[0] & ((1 << bits) - 1), t[0]


def _leaving_rows(t: np.ndarray, r: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per system (a column of t, r and basis, of shape (rows, systems)),
    the tableau row with t > 0 of least ratio r / t, ties to the smaller
    basis index, and its entry t (0 when no row has t > 0; the row is then
    the least basis index's).

    r >= 0 throughout phase one.  Basis indices are distinct within a
    system, so (ratio, basis index) orders the eligible rows strictly, and
    both paths find the row that a sequential scan finds: a rank lookup on
    the int16 rung (_ranked_rows), a tournament on the wider ones.
    """
    if t.dtype == np.int16:
        return _ranked_rows(t, r, basis)
    return _tournament_rows(t, r, basis)


def solve_block(
    coeffs: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Find x >= 0 with A x >= b for every system of a block.

    coeffs has shape (systems, rows, variables) and rhs shape (systems,
    rows), both integer with rhs >= 0; all-zero rows with rhs 0 pad the
    shorter systems.  Returns (feasible, nums, dens): per system whether
    it is feasible and, when it is, the point x = nums / dens (integer
    arrays, int64 unless the block outgrew the int64 rung).
    """
    coeffs = np.asarray(coeffs)
    rhs = np.asarray(rhs)
    systems, m, v = coeffs.shape
    art = rhs > 0
    k = int(art.sum(axis=1).max(initial=0))
    # Nonbasic columns, at least one so that every system has a column to
    # pick; the right-hand side is column `width`.
    width = max(v + k, 1)
    # The objective row sums the artificial-carrying rows.  Past the int64
    # rung's guard those sums, and the answers, are Python integers.  The
    # block is built on the first rung that holds every entry.
    rung = _rung(0, coeffs, rhs)
    wide = np.int64 if rung < len(_LADDER) else object
    if wide is object:
        coeffs, rhs = coeffs.astype(object), rhs.astype(object)
    obj = np.sum(coeffs, axis=1, where=art[:, :, None], initial=0)
    total = rhs.sum(axis=1)
    rung = _rung(rung, obj, total)
    dtype = _LADDER[rung][0] if rung < len(_LADDER) else object

    # tab[i, j, s] is row i, column j of system s's tableau: systems last,
    # so every whole-block operation runs along a row of systems.  Rows
    # with b > 0 read A x - s + a = b with the artificial a basic; rows
    # with b = 0 read -A x + s = 0 with the slack s basic.
    tab = np.zeros((m + 1, width + 1, systems), dtype=dtype)
    body = coeffs.transpose(1, 2, 0).astype(dtype, copy=False)
    tab[:m, :v] = np.where(art.T[:, None, :], body, -body)
    tab[:m, width] = rhs.T
    tab[m, :v] = obj.T
    tab[m, width] = total
    # The surplus of the j-th artificial row is nonbasic in column v + j.
    sys_idx, row_idx = np.nonzero(art)
    slot = np.cumsum(art, axis=1) - 1
    surplus = v + slot[sys_idx, row_idx]
    tab[row_idx, surplus, sys_idx] = -1
    tab[m, surplus, sys_idx] = -1

    # Variable numbering as in the one-system layout: x is 0..v-1, row i's
    # slack is v + i, and artificials come after every slack.  Labels at
    # or above `enterable` never enter: artificials and unused columns.
    # labels and basis are systems last too.
    enterable = v + m
    labels = np.full((width, systems), v + 2 * m, dtype=np.int64)
    labels[:v] = np.arange(v)[:, None]
    labels[surplus, sys_idx] = v + row_idx
    basis = (np.where(art, v + m, v) + np.arange(m)).T.copy()
    delta = np.ones(systems, dtype=dtype)

    feasible = np.zeros(systems, dtype=bool)
    nums = np.zeros((systems, v), dtype=wide)
    dens = np.ones(systems, dtype=wide)
    live = np.arange(systems)  # original index of each system still in the block
    while live.size:
        here = np.arange(live.size)
        cand = np.where(tab[m, :width] > 0, labels, enterable)
        col = cand.argmin(axis=0)
        solved = tab[m, width] == 0
        # No improving column: the optimum is above 0, so infeasible.
        stuck = cand[col, here] >= enterable
        done = solved | stuck
        if done.any():
            if solved.any():
                if tab.dtype == object and nums.dtype != object:
                    nums, dens = nums.astype(object), dens.astype(object)
                r_idx, s_idx = np.nonzero((basis < v) & solved)
                feasible[live[solved]] = True
                nums[live[s_idx], basis[r_idx, s_idx]] = tab[r_idx, width, s_idx]
                dens[live[solved]] = delta[solved]
            keep = ~done
            tab, labels, basis = tab[..., keep], labels[:, keep], basis[:, keep]
            delta, live, col = delta[keep], live[keep], col[keep]
            if not live.size:
                break
            here = here[: live.size]
        if tab.dtype != object:
            rung = _rung(rung, tab)
            dtype = _LADDER[rung][0] if rung < len(_LADDER) else object
            if tab.dtype != dtype:
                tab, delta = tab.astype(dtype), delta.astype(dtype)

        pcol = tab[:, col, here]  # (rows, systems)
        row, pivot = _leaving_rows(pcol[:m], tab[:m, width], basis)
        if (pivot <= 0).any():
            # Unbounded reduction of a nonnegative objective cannot happen.
            raise RuntimeError("phase-one ratio test failed")

        prow = tab[row, :, here]  # (systems, columns)
        if tab.dtype == object:
            tab *= pivot
            tab -= pcol[:, None, :] * prow.T
            tab //= delta
        else:
            inv, shift = _exact_divisor(delta, tab.dtype)
            tab *= pivot * inv
            tab -= pcol[:, None, :] * (prow * inv[:, None]).T
            tab >>= shift
        tab[row, :, here] = prow
        tab[:, col, here] = -pcol
        tab[row, col, here] = delta
        delta = pivot
        leaving = basis[row, here]
        basis[row, here] = labels[col, here]
        labels[col, here] = leaving
        gone = leaving >= enterable
        tab[:, col[gone], here[gone]] = 0  # an artificial left: drop its column
    return feasible, nums, dens


def solve_nonneg_geq(
    num_vars: int, rows: Sequence[tuple[Sequence[int], int]]
) -> list[Fraction] | None:
    """Find x >= 0 with A x >= b, or None when infeasible.

    rows is a list of (coefficients, b) with integer entries and b >= 0.
    Returns one feasible point as exact fractions.
    """
    for coeffs, b in rows:
        if len(coeffs) != num_vars:
            raise ValueError("coefficient row has the wrong length")
        if b < 0:
            raise ValueError("right-hand sides must be nonnegative")
    m = len(rows)
    coeffs = np.array([[int(c) for c in r] for r, _ in rows], dtype=object).reshape(1, m, num_vars)
    rhs = np.array([int(b) for _, b in rows], dtype=object).reshape(1, m)
    feasible, nums, dens = solve_block(coeffs, rhs)
    if not feasible[0]:
        return None
    return [Fraction(int(x), int(dens[0])) for x in nums[0]]
