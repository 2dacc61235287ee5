"""Exact feasibility for small rational linear systems, many at a time.

Phase-one simplex over all-integer tableaux, run on a block of systems
in lockstep.  A block is a numpy array of shape (systems, rows + 1,
columns + 1): one tableau per system, its last row the objective (the
sum of the artificial-carrying rows) and its last column the right-hand
side.  Systems with fewer rows are padded with zero rows, which stay zero
and never leave the basis.

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
  leaving row minimises the ratio by exact cross-multiplication, ties
  going to the smallest basis index, found by a pairwise tournament over
  the rows (_leaving_rows).  Every system therefore makes the same pivots
  and reaches the same vertex whatever block it is solved in; finished
  systems drop out of the block.
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


def _leaving_rows(t: np.ndarray, r: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per system (a row of t, r and basis), the tableau row with t > 0 of
    least ratio r / t, ties to the smaller basis index, and its entry t
    (0 when no row has t > 0).

    Basis indices are distinct within a system, so (ratio, basis index)
    orders the eligible rows strictly, and a pairwise tournament finds the
    row that a sequential scan finds.  Ineligible rows read 1 / 0, above
    every eligible ratio; an odd width puts its middle row in two pairs.
    """
    m = t.shape[1]
    bits = m.bit_length()
    # Keys order by basis index and carry the row in their low bits.  The
    # tournament reads copies laid out a tableau row at a time.
    key = (basis << bits | np.arange(m)).T.copy()
    t, r = t.T.copy(), r.T.copy()
    ineligible = t <= 0
    t[ineligible], r[ineligible] = 0, 1
    while m > 1:
        h = (m + 1) >> 1
        lhs, rhs = r[:h] * t[m - h :], r[m - h :] * t[:h]
        first = (lhs < rhs) | ((lhs == rhs) & (key[:h] < key[m - h :]))
        t, r, key = (np.where(first, a[:h], a[m - h :]) for a in (t, r, key))
        m = h
    return key[0] & ((1 << bits) - 1), t[0]


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
    width = v + k  # nonbasic columns; the right-hand side is column `width`
    # Built in int64 (or object, when the input needs it), narrowed at the
    # first pivot.
    rung = _rung(0, coeffs, rhs)
    dtype = np.int64 if rung < len(_LADDER) else object

    # Rows with b > 0 read A x - s + a = b with the artificial a basic;
    # rows with b = 0 read -A x + s = 0 with the slack s basic.
    tab = np.zeros((systems, m + 1, width + 1), dtype=dtype)
    tab[:, :m, :v] = np.where(art[:, :, None], coeffs, -coeffs)
    tab[:, :m, width] = rhs
    # The surplus of the j-th artificial row is nonbasic in column v + j.
    sys_idx, row_idx = np.nonzero(art)
    slot = np.cumsum(art, axis=1) - 1
    tab[sys_idx, row_idx, v + slot[sys_idx, row_idx]] = -1
    tab[:, m] = (tab[:, :m] * art[:, :, None]).sum(axis=1)

    # Variable numbering as in the one-system layout: x is 0..v-1, row i's
    # slack is v + i, and artificials come after every slack.  Labels at
    # or above `enterable` never enter: artificials and unused columns.
    enterable = v + m
    labels = np.full((systems, width), v + 2 * m, dtype=np.int64)
    labels[:, :v] = np.arange(v)
    labels[sys_idx, v + slot[sys_idx, row_idx]] = v + row_idx
    basis = np.where(art, v + m, v) + np.arange(m)
    delta = np.ones(systems, dtype=dtype)

    feasible = np.zeros(systems, dtype=bool)
    nums = np.zeros((systems, v), dtype=dtype)
    dens = np.ones(systems, dtype=dtype)
    live = np.arange(systems)  # original index of each system still in the block
    while live.size:
        obj = tab[:, m]
        cand = np.where(obj[:, :width] > 0, labels, enterable)
        solved = obj[:, width] == 0
        stuck = cand.min(axis=1, initial=enterable) >= enterable  # optimum > 0: infeasible
        done = solved | stuck
        if done.any():
            if solved.any():
                if tab.dtype == object and nums.dtype != object:
                    nums, dens = nums.astype(object), dens.astype(object)
                s_idx, r_idx = np.nonzero(solved[:, None] & (basis < v))
                feasible[live[solved]] = True
                nums[live[s_idx], basis[s_idx, r_idx]] = tab[s_idx, r_idx, width]
                dens[live[solved]] = delta[solved]
            keep = ~done
            tab, labels, basis, delta, live, cand = (
                a[keep] for a in (tab, labels, basis, delta, live, cand)
            )
            if not live.size:
                break
        col = cand.argmin(axis=1)
        if tab.dtype != object:
            rung = _rung(rung, tab)
            dtype = _LADDER[rung][0] if rung < len(_LADDER) else object
            if tab.dtype != dtype:
                tab, delta = tab.astype(dtype), delta.astype(dtype)

        here = np.arange(live.size)
        row, pivot = _leaving_rows(tab[here, :m, col], tab[:, :m, width], basis)
        if (pivot <= 0).any():
            # Unbounded reduction of a nonnegative objective cannot happen.
            raise RuntimeError("phase-one ratio test failed")

        prow = tab[here, row].copy()
        pcol = tab[here, :, col].copy()
        if tab.dtype == object:
            tab *= pivot[:, None, None]
            tab -= pcol[:, :, None] * prow[:, None, :]
            tab //= delta[:, None, None]
        else:
            inv, shift = _exact_divisor(delta, tab.dtype)
            tab *= (pivot * inv)[:, None, None]
            tab -= pcol[:, :, None] * (prow * inv[:, None])[:, None, :]
            tab >>= shift[:, None, None]
        tab[here, row] = prow
        tab[here, :, col] = -pcol
        tab[here, row, col] = delta
        delta = pivot
        leaving = basis[here, row]
        basis[here, row] = labels[here, col]
        labels[here, col] = leaving
        gone = leaving >= enterable
        tab[here[gone], :, col[gone]] = 0  # an artificial left: drop its column
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
