"""Exact power indices for simple games.

Two indices are computed, both from swings (coalitions turned from losing
to winning by one voter joining):

* the Shapley-Shubik index, where a swing at coalition size k carries
  weight k! (n-1-k)! / n!, and
* the (normalized) Penrose-Banzhaf index, raw swing counts divided by
  their total.

Everything is exact.  PowerVector is the one type for a point on the
probability simplex: computed indices, inverse targets and store
queries alike.  It keeps its integer numerators over one denominator as
given, so pbi(g).nums are the raw swing counts and pbi(g).den their
total; key() is the reduced form.  One builder (_from_profile) turns each
voter's swings by coalition size into either index, for the table and
the DP paths alike.

Small games go through the full outcome table.  Weighted games and
and/or combinations of them have a dynamic-programming path that scales
to dozens of voters.  It counts coalitions by size and weight sum, with
one weight-sum axis per distinct weight vector of the non-uniform leaves
(a uniform leaf only bounds the size).  The axes are folded into one flat
sum by mixed radix: axis a, of sums 0 .. cap_a, has place value
R_a = prod_(b < a) (cap_b + 1), and voter i has flat weight
W_i = sum_a w_ia R_a.  One forward pass (_size_sum_counts) counts the
coalitions of every size and flat sum, and the removal recurrence
(_removal_table), the generating-function division of Bilbao et al.
(2000), takes out one voter of each distinct flat weight.  Adding weights
never carries from one axis to the next, since an axis sum is at most its
cap.  Taking W_i away borrows only where some axis sum s_a is below w_ia.
The flat index then falls below zero, into the removal table's zero pad,
or on a sum above cap_a - w_ia on the lowest such axis, which the other
voters cannot reach; either way the count read there is the true zero.
The heuristic inverse search's quota scan runs on the same two helpers.

Catalog pipelines take a whole stack of monotone tables (n <= 8) at once:
in a monotone game each index is linear in the outcome table, so each
kind is one exact int64 product with a cached (2**n, n) coefficient
matrix.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .enumeration import BIG_N
from .games import (
    BoolCombo,
    Game,
    WeightedGame,
    _members,
    _voter_halves,
    to_explicit,
)

__all__ = [
    "KINDS",
    "PowerVector",
    "ssi",
    "pbi",
    "power_vector",
    "ssi_dp",
    "pbi_dp",
    "batch_swing_counts",
    "batch_ssi_numerators",
    "decimal_str",
]

KINDS = ("ssi", "pbi")

MAX_DP_VOTERS = 64


class PowerVector:
    """An exact power distribution: integer numerators over one denominator.

    Entries are nonnegative and sum to the denominator, so the vector lies
    on the probability simplex.  The numerators are kept as given;
    equality and hashing go through the reduced form, so the same
    distribution compares equal regardless of scaling.
    """

    __slots__ = ("kind", "nums", "den", "_key")

    def __init__(self, kind: str, nums: Sequence[int], den: int):
        if kind not in KINDS:
            raise ValueError(f"unknown index kind {kind!r}")
        nums = tuple(int(x) for x in nums)
        den = int(den)
        if den <= 0:
            raise ValueError("denominator must be positive")
        if any(x < 0 for x in nums):
            raise ValueError("numerators must be nonnegative")
        if sum(nums) != den:
            raise ValueError("power vector entries must sum to 1")
        self.kind = kind
        self.nums = nums
        self.den = den
        self._key = None

    @property
    def n(self) -> int:
        return len(self.nums)

    def key(self) -> tuple[int, ...]:
        """Numerators and denominator in lowest common terms: x / g over
        d / g for numerators x over d, with g = gcd(d, x1, ..., xn).  d / g
        is the lcm of the reduced entries' denominators."""
        if self._key is None:
            g = math.gcd(self.den, *self.nums)
            self._key = tuple(x // g for x in self.nums) + (self.den // g,)
        return self._key

    def fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self.nums[i], self.den)

    def __len__(self) -> int:
        return len(self.nums)

    def __eq__(self, other):
        return (
            isinstance(other, PowerVector)
            and self.kind == other.kind
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash((self.kind, self.key()))

    def __repr__(self):
        vals = ", ".join(decimal_str(f) for f in self.fractions())
        return f"PowerVector({self.kind}, [{vals}])"


@lru_cache(maxsize=None)
def _factorials(n: int) -> tuple[int, ...]:
    out = [1]
    for k in range(1, n + 1):
        out.append(out[-1] * k)
    return tuple(out)


@lru_cache(maxsize=8)
def _popcounts(n: int) -> np.ndarray:
    idx = np.arange(1 << n, dtype=np.int64)
    pc = np.zeros(1 << n, dtype=np.uint8)
    for b in range(n):
        pc += ((idx >> b) & 1).astype(np.uint8)
    return pc


def _swing_size_profile(table: np.ndarray, n: int) -> list[list[int]]:
    """For each voter, the number of swings at each coalition size k of the
    coalition being joined (k = 0 .. n-1)."""
    out = []
    for b in range(n):
        without, with_voter = _voter_halves(table, b)
        sizes = _voter_halves(_popcounts(n), b)[0][with_voter > without]
        out.append(np.bincount(sizes, minlength=n)[:n].tolist())
    return out


def _swing_weights(n: int, kind: str) -> tuple[int, ...]:
    """c_k, the weight of a swing at a coalition of k others (k = 0 ..
    n-1): k! (n-1-k)! for Shapley-Shubik numerators over n!, 1 for raw
    swing counts."""
    if kind == "pbi":
        return (1,) * n
    fact = _factorials(n)
    return tuple(fact[k] * fact[n - 1 - k] for k in range(n))


def _from_profile(profile: list[list[int]], kind: str) -> PowerVector:
    """The index of this kind from each voter's swings by coalition size:
    Shapley-Shubik numerators over n!, or the raw swing counts over their
    total."""
    n = len(profile)
    c = _swing_weights(n, kind)
    nums = [sum(map(operator.mul, c, row)) for row in profile]
    return PowerVector(kind, nums, _factorials(n)[n] if kind == "ssi" else sum(nums))


def power_vector(g: Game, kind: str) -> PowerVector:
    """The index of this kind via the full table (n limited by
    to_explicit)."""
    e = to_explicit(g)
    return _from_profile(_swing_size_profile(e.np_table, e.n), kind)


def ssi(g: Game) -> PowerVector:
    """Shapley-Shubik index via the full table."""
    return power_vector(g, "ssi")


def pbi(g: Game) -> PowerVector:
    """Normalized Penrose-Banzhaf index via the full table: the raw swing
    counts over their total."""
    return power_vector(g, "pbi")


# ---------------------------------------------------------------------------
# Dynamic-programming paths for weighted games and their combinations
# ---------------------------------------------------------------------------


def _size_sum_counts(weights: Sequence[int], n: int) -> np.ndarray:
    """dp[k, s]: the coalitions of size k and weight sum s."""
    dp = np.zeros((n + 1, sum(weights) + 1), dtype=np.int64)
    dp[0, 0] = 1
    # With at most MAX_DP_VOTERS = 64 voters, coalition counts stay below
    # C(64, 32) < 2**63.  Each voter adds the coalitions so far (sizes up
    # to joined, sums up to reach) shifted by one in size and w in sum;
    # numpy buffers the overlapping operands, so every voter joins at most
    # once.
    joined = reach = 0
    for w in weights:
        dp[1 : joined + 2, w : reach + w + 1] += dp[: joined + 1, : reach + 1]
        joined += 1
        reach += w
    return dp


def _shift_index(shape, pad: int, shifts, count: int) -> np.ndarray:
    """Flat indices of table[..., pad + s - shift] for s < count in a
    C-ordered table of this shape, with one shift per row (shifts
    broadcast against shape[:-1]).  A shift up to pad reads pad columns."""
    rows = shape[:-1]
    starts = np.arange(math.prod(rows)).reshape(rows) * shape[-1] + pad - np.asarray(shifts)
    return starts[..., None] + np.arange(count)


def _removal_table(counts: np.ndarray, distinct: Sequence[int], pad: int) -> np.ndarray:
    """counts with one voter of each distinct weight taken out.

    counts[k, m, s] counts the coalitions of size k and sum s (or sum at
    most s) of voter set m; table[k, m, j, pad + s] is the same count for
    set m less one voter of weight distinct[j], from the removal
    recurrence

        table[k, m, j, s] = counts[k, m, s] - table[k - 1, m, j, s - distinct[j]],

    with one gather per size for every set and weight at once.  The pad
    columns stay zero, so a shift by up to pad reads zeros.
    """
    sizes, sets, width = counts.shape
    table = np.zeros((sizes, sets, len(distinct), pad + width), dtype=np.int64)
    if sizes:
        table[0, ..., pad:] = counts[0, :, None]
    back = _shift_index(table.shape[1:], pad, distinct, width)
    for k in range(1, sizes):
        np.subtract(counts[k, :, None], table[k - 1].take(back), out=table[k, ..., pad:])
    return table


class _ComboPlan:
    """Scaled integer view of a game built from weighted leaves: the leaf
    tree, each voter's flat weight and the width of the flat sums (see
    the module docstring).  Leaves with the same weights share an axis
    whatever their quotas."""

    def __init__(self, g: Union[WeightedGame, BoolCombo], state_cap: int):
        if g.n > MAX_DP_VOTERS:
            raise ValueError(f"dynamic programming supports up to {MAX_DP_VOTERS} voters")
        self.n = g.n
        self.flat = [0] * self.n
        self.width = 1
        self._radix: dict[tuple[int, ...], int] = {}  # an axis's weights -> R_a
        self.tree = self._plan(g)
        cells = (self.n + 1) * self.width
        if cells > state_cap:
            raise ValueError(
                f"state space has {cells} cells, above the cap of {state_cap}; "
                "raise state_cap to proceed"
            )

    def _plan(self, node):
        if isinstance(node, WeightedGame):
            t, w = node.scaled_ints()
            if len(set(w)) == 1:
                # Uniform leaf: wins iff coalition size reaches ceil(t / w).
                return ("size", -(-t // w[0]))
            if w not in self._radix:
                self._radix[w] = self.width
                self.flat = [f + x * self.width for f, x in zip(self.flat, w)]
                self.width *= sum(w) + 1
            return ("axis", self._radix[w], sum(w) + 1, t)
        return (node.op, tuple(self._plan(p) for p in node.parts))

    def win_grid(self) -> np.ndarray:
        """Boolean array over (size, flat sum) marking winning states."""
        sums = np.arange(self.width)

        def build(node) -> np.ndarray:
            tag = node[0]
            if tag == "size":
                return (np.arange(self.n + 1) >= node[1])[:, None]
            if tag == "axis":
                _, radix, base, t = node
                return (sums // radix % base >= t)[None, :]
            parts = [build(p) for p in node[1]]
            acc = parts[0]
            for p in parts[1:]:
                acc = acc & p if tag == "and" else acc | p
            return acc

        return np.broadcast_to(build(self.tree), (self.n + 1, self.width))


def _swing_profile_dp(g, state_cap: int) -> list[list[int]]:
    """Each voter's swings by the size of the coalition joined: one
    forward DP, then one removal per distinct flat weight W, a lane at a
    time.  A coalition of the others of size k and flat sum s is a swing
    when win[k + 1, s + W] and not win[k, s]."""
    plan = _ComboPlan(g, state_cap)
    n, width = plan.n, plan.width
    win = plan.win_grid()
    counts = _size_sum_counts(plan.flat, n)[:n, None]
    pad = max(plan.flat)

    def lane(w: int) -> list[int]:
        swings = _removal_table(counts, [w], pad)[:, 0, 0, pad : pad + width - w]
        swings *= win[1:, w:] & ~win[:-1, : width - w]
        return [int(x) for x in swings.sum(axis=1)]

    rows = {w: lane(w) for w in set(plan.flat)}
    return [rows[w] for w in plan.flat]


def ssi_dp(g: Union[WeightedGame, BoolCombo], state_cap: int = 10**6) -> PowerVector:
    """Shapley-Shubik index by dynamic programming over weight sums."""
    return _from_profile(_swing_profile_dp(g, state_cap), "ssi")


def pbi_dp(g: Union[WeightedGame, BoolCombo], state_cap: int = 10**6) -> PowerVector:
    """Normalized Penrose-Banzhaf index by dynamic programming: the raw
    swing counts over their total."""
    return _from_profile(_swing_profile_dp(g, state_cap), "pbi")


# ---------------------------------------------------------------------------
# Batch paths over many tables at once (catalog pipelines)
# ---------------------------------------------------------------------------


# Rows per block of the batch products: a block's int64 copy of its
# tables stays near 2 MB at 8 voters.
_BATCH_BLOCK = 1024


@lru_cache(maxsize=None)
def _batch_coefficients(n: int, kind: str) -> np.ndarray:
    """The (2**n, n) int64 matrix M with table @ M = the index numerators
    of a monotone n-voter game.

    With a size weight c(k) for a swing at a coalition of k others,
    voter b's numerator is the sum over S without b of
    c(|S|) (v(S + b) - v(S)), since in a monotone game each difference
    is 1 at a swing and 0 elsewhere.  Regrouped by coalition, v(T) carries
    c(|T| - 1) if b is in T and -c(|T|) if not.  c is 1 for swing counts
    and k! (n-1-k)! for Shapley-Shubik numerators over n!.
    """
    # c[n] = 0 is read only where np.where discards it: at the empty
    # coalition's c[-1] and the full coalition's c[n].
    c = np.array(_swing_weights(n, kind) + (0,), dtype=np.int64)
    sizes = _popcounts(n).astype(np.int64)[:, None]
    coef = np.where(_members(n) == 1, c[sizes - 1], -c[sizes])
    coef.flags.writeable = False
    return coef


def _batch_product(tables: np.ndarray, kind: str) -> np.ndarray:
    g_count, size = tables.shape
    n = size.bit_length() - 1
    if size != 1 << n or n > BIG_N:
        raise ValueError(f"batch kernels take (games, 2**n) tables with n <= {BIG_N}, got width {size}")
    coef = _batch_coefficients(n, kind)
    out = np.empty((g_count, n), dtype=np.int64)
    for start in range(0, g_count, _BATCH_BLOCK):
        stop = start + _BATCH_BLOCK
        np.matmul(tables[start:stop].astype(np.int64), coef, out=out[start:stop])
    return out


def batch_swing_counts(tables: np.ndarray) -> np.ndarray:
    """Swing counts for a stack of outcome tables, shape (G, 2**n) -> (G, n).

    Every table must be monotone and 0/1, as every complete game's is; a
    table that is not monotone gets no meaningful row.  Tables with more
    than BIG_N voters raise ValueError.
    """
    return _batch_product(tables, "pbi")


def batch_ssi_numerators(tables: np.ndarray) -> tuple[np.ndarray, int]:
    """Shapley-Shubik numerators over n! for a stack of tables, under the
    same monotone precondition as batch_swing_counts."""
    n = tables.shape[1].bit_length() - 1
    return _batch_product(tables, "ssi"), _factorials(n)[n]


# ---------------------------------------------------------------------------
# Display
# ---------------------------------------------------------------------------


def decimal_str(x: Fraction, places: int = 7) -> str:
    """Fixed-point decimal, rounded half up, by integer arithmetic."""
    x = Fraction(x)
    sign = "-" if x < 0 else ""
    num, den = abs(x.numerator), x.denominator
    scaled = (num * 10**places * 2 + den) // (2 * den)
    whole, frac = divmod(scaled, 10**places)
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{places}d}"
