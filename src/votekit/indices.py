"""Exact power indices for simple games.

Two indices are computed, both from swings (coalitions turned from losing
to winning by one voter joining):

* the Shapley-Shubik index, where a swing at coalition size k carries
  weight k! (n-1-k)! / n!, and
* the (normalized) Penrose-Banzhaf index, raw swing counts divided by
  their total.

Everything is exact: vectors are integer numerators over one denominator.
Small games go through the full outcome table; weighted games and and/or
combinations of them have dynamic-programming paths that scale to dozens
of voters by tracking coalition size plus one weight-sum axis per
distinct non-uniform leaf.  Catalog pipelines take a whole stack of
monotone tables (n <= 8) at once: in a monotone game each index is linear
in the outcome table, so each kind is one exact int64 product with a
cached (2**n, n) coefficient matrix.
"""

from __future__ import annotations

import math
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
    to_explicit,
)

__all__ = [
    "KINDS",
    "PowerVector",
    "SwingCounts",
    "swing_counts",
    "ssi",
    "pbi",
    "power_vector",
    "swing_counts_dp",
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
    on the probability simplex.  Equality and hashing go through the
    reduced form, so the same distribution compares equal regardless of
    scaling.
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
        """Numerators and denominator in lowest common terms."""
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


class SwingCounts:
    """Raw swing counts per voter, before normalization."""

    __slots__ = ("counts",)

    def __init__(self, counts: Sequence[int]):
        self.counts = tuple(int(c) for c in counts)
        if any(c < 0 for c in self.counts):
            raise ValueError("swing counts are nonnegative")
        if sum(self.counts) == 0:
            raise ValueError("a simple game has at least one swing")

    @property
    def n(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    def normalized(self) -> PowerVector:
        return PowerVector("pbi", self.counts, self.total)

    def __eq__(self, other):
        return isinstance(other, SwingCounts) and self.counts == other.counts

    def __hash__(self):
        return hash(self.counts)

    def __repr__(self):
        return f"SwingCounts({self.counts})"


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
    idx = np.arange(1 << n, dtype=np.int64)
    pc = _popcounts(n)
    out = []
    for b in range(n):
        absent = idx[(idx >> b) & 1 == 0]
        swing = (table[absent | (1 << b)] == 1) & (table[absent] == 0)
        sizes = pc[absent[swing]].astype(np.int64)
        out.append([int(c) for c in np.bincount(sizes, minlength=n)[:n]])
    return out


def swing_counts(g: Game) -> SwingCounts:
    e = to_explicit(g)
    profile = _swing_size_profile(e.np_table, e.n)
    return SwingCounts([sum(row) for row in profile])


def _ssi_from_profile(profile: list[list[int]], n: int) -> PowerVector:
    fact = _factorials(n)
    nums = [
        sum(cnt * fact[k] * fact[n - 1 - k] for k, cnt in enumerate(row))
        for row in profile
    ]
    return PowerVector("ssi", nums, fact[n])


def ssi(g: Game) -> PowerVector:
    """Shapley-Shubik index via the full table (n limited by to_explicit)."""
    e = to_explicit(g)
    return _ssi_from_profile(_swing_size_profile(e.np_table, e.n), e.n)


def pbi(g: Game) -> PowerVector:
    """Normalized Penrose-Banzhaf index via the full table."""
    return swing_counts(g).normalized()


def power_vector(g: Game, kind: str) -> PowerVector:
    if kind == "ssi":
        return ssi(g)
    if kind == "pbi":
        return pbi(g)
    raise ValueError(f"unknown index kind {kind!r}")


# ---------------------------------------------------------------------------
# Dynamic-programming paths for weighted games and their combinations
# ---------------------------------------------------------------------------


class _ComboPlan:
    """Scaled integer view of a game built from weighted leaves.

    Leaves with all weights equal only constrain the coalition size, so
    they need no state axis.  The remaining distinct leaves each get a
    weight-sum axis; per-voter weight tuples index into those axes.
    """

    def __init__(self, g: Union[WeightedGame, BoolCombo], state_cap: int):
        if g.n > MAX_DP_VOTERS:
            raise ValueError(f"dynamic programming supports up to {MAX_DP_VOTERS} voters")
        self.n = g.n
        self.axes: list[tuple[int, ...]] = []  # per-voter weights, one entry per axis
        self.axis_caps: list[int] = []
        self.axis_quota: list[int] = []
        self._axis_of: dict[tuple, int] = {}
        self.tree = self._plan(g)
        cells = self.n + 1
        for cap in self.axis_caps:
            cells *= cap + 1
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
            key = (t, w)
            if key not in self._axis_of:
                self._axis_of[key] = len(self.axes)
                self.axes.append(w)
                self.axis_caps.append(sum(w))
                self.axis_quota.append(t)
            return ("axis", self._axis_of[key])
        return (node.op, tuple(self._plan(p) for p in node.parts))

    def win_grid(self) -> np.ndarray:
        """Boolean array over (size, axis sums...) marking winning states."""
        shape = (self.n + 1,) + tuple(c + 1 for c in self.axis_caps)

        def build(node) -> np.ndarray:
            tag = node[0]
            if tag == "size":
                kmin = node[1]
                grid = np.arange(self.n + 1) >= kmin
                return grid.reshape((-1,) + (1,) * len(self.axis_caps))
            if tag == "axis":
                a = node[1]
                grid = np.arange(self.axis_caps[a] + 1) >= self.axis_quota[a]
                shp = [1] * (len(self.axis_caps) + 1)
                shp[a + 1] = -1
                return grid.reshape(shp)
            parts = [build(p) for p in node[1]]
            acc = np.broadcast_to(parts[0], shape).copy()
            for p in parts[1:]:
                if tag == "and":
                    acc &= p
                else:
                    acc |= p
            return acc

        return np.broadcast_to(build(self.tree), shape).copy()

    def voter_weights(self, i: int) -> tuple[int, ...]:
        return tuple(w[i] for w in self.axes)

    def subset_counts(self, skip: int) -> np.ndarray:
        """dp[k, sums...] = number of coalitions of the other voters with
        that size and those axis sums."""
        shape = (self.n + 1,) + tuple(c + 1 for c in self.axis_caps)
        dp = np.zeros(shape, dtype=np.int64)
        dp[(0,) + (0,) * len(self.axis_caps)] = 1
        kmax = 0
        for v in range(self.n):
            if v == skip:
                continue
            w = self.voter_weights(v)
            kmax += 1
            # Descending size index so a voter is counted at most once.
            for k in range(kmax, 0, -1):
                dst = (k,) + tuple(slice(wa, None) for wa in w)
                src = (k - 1,) + tuple(
                    slice(0, cap + 1 - wa) for cap, wa in zip(self.axis_caps, w)
                )
                dp[dst] += dp[src]
        return dp


def _swing_profile_dp(g, state_cap: int) -> list[list[int]]:
    plan = _ComboPlan(g, state_cap)
    n = plan.n
    win = plan.win_grid()
    profile = []
    for i in range(n):
        dp = plan.subset_counts(i)
        w = plan.voter_weights(i)
        gained = (slice(1, None),) + tuple(slice(wa, None) for wa in w)
        base = (slice(0, n),) + tuple(
            slice(0, cap + 1 - wa) for cap, wa in zip(plan.axis_caps, w)
        )
        swing = win[gained] & ~win[base]
        counts = dp[base]
        row = []
        for k in range(n):
            row.append(int(counts[k][swing[k]].sum()))
        profile.append(row)
    return profile


def swing_counts_dp(g: Union[WeightedGame, BoolCombo], state_cap: int = 10**6) -> SwingCounts:
    """Swing counts without touching the 2**n table."""
    profile = _swing_profile_dp(g, state_cap)
    return SwingCounts([sum(row) for row in profile])


def ssi_dp(g: Union[WeightedGame, BoolCombo], state_cap: int = 10**6) -> PowerVector:
    """Shapley-Shubik index by dynamic programming over weight sums."""
    profile = _swing_profile_dp(g, state_cap)
    return _ssi_from_profile(profile, g.n)


def pbi_dp(g: Union[WeightedGame, BoolCombo], state_cap: int = 10**6) -> PowerVector:
    """Normalized Penrose-Banzhaf index by dynamic programming."""
    return swing_counts_dp(g, state_cap).normalized()


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
    fact = _factorials(n)
    if kind == "ssi":
        c = [fact[k] * fact[n - 1 - k] for k in range(n)]
    else:
        c = [1] * n
    # c[n] = 0 is read only where np.where discards it: at the empty
    # coalition's c[-1] and the full coalition's c[n].
    c = np.array(c + [0], dtype=np.int64)
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
