"""Inverse problems: from a target power distribution to a nearby game.

Two modes with very different guarantees:

* inverse_exact scans a complete catalog of weighted games through the
  nearest-neighbor store, so its answer is the true minimum (EXACT_MIN).
  That is only possible where the catalog exists (n <= 8).
* inverse_heuristic hill-climbs over integer weight vectors of a fixed
  total, evaluating every quota of a candidate in one dynamic-programming
  sweep.  Its answer is an upper bound on the true minimum
  (HEURISTIC_UPPER_BOUND) and is deterministic for a given seed and
  budget; a larger budget only extends the evaluation sequence, so it can
  never return a worse distance.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .games import Game, WeightedGame, add_null_voters
from .geometry import Metric, VectorStore, distance
from .indices import PowerVector, decimal_str, power_vector, _factorials

__all__ = [
    "Target",
    "parse_target_file",
    "beta_target",
    "InverseMode",
    "InverseResult",
    "inverse_exact",
    "inverse_heuristic",
    "padded_target_search",
    "PaddedSearchReport",
]

MAX_HEURISTIC_VOTERS = 64


@dataclass(frozen=True)
class Target:
    """A target power distribution: index kind plus exact simplex point."""

    kind: str
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if self.kind not in ("ssi", "pbi"):
            raise ValueError(f"unknown index kind {self.kind!r}")
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))
        if not self.values:
            raise ValueError("a target needs at least one entry")
        if any(v < 0 for v in self.values):
            raise ValueError("target entries must be nonnegative")
        if sum(self.values) != 1:
            raise ValueError(
                "target entries must sum to exactly 1; renormalize first if the "
                "values are rounded"
            )

    @property
    def n(self) -> int:
        return len(self.values)

    @classmethod
    def from_vector(cls, v: PowerVector) -> "Target":
        return cls(v.kind, v.fractions())

    def common_ints(self) -> tuple[list[int], int]:
        den = math.lcm(*(v.denominator for v in self.values))
        return [int(v * den) for v in self.values], den


def parse_target_file(text: str, normalize: bool = False) -> Target:
    """Target file: a header line "n=<count> index=<ssi|pbi>", then the
    values, whitespace-separated, as exact fractions or decimals.

    normalize rescales the values to sum to 1, for targets that were
    rounded before they were written down.
    """
    lines = [
        ln.strip() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty target file")
    head = lines[0].split()
    fields = {}
    for part in head:
        if "=" not in part:
            raise ValueError(f"bad header field {part!r}; expected n=<count> index=<kind>")
        k, _, v = part.partition("=")
        fields[k] = v
    if "n" not in fields or "index" not in fields:
        raise ValueError("target header must declare n=<count> and index=<kind>")
    try:
        n = int(fields["n"])
    except ValueError:
        raise ValueError(f"bad voter count {fields['n']!r}") from None
    tokens = " ".join(lines[1:]).split()
    if len(tokens) != n:
        raise ValueError(f"expected {n} values, found {len(tokens)}")
    try:
        values = [Fraction(t) for t in tokens]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad target value: {exc}") from None
    if normalize:
        total = sum(values)
        if total <= 0:
            raise ValueError("cannot normalize: values sum to zero")
        values = [v / total for v in values]
    return Target(fields["index"], tuple(values))


def beta_target(n: int, kind: str) -> Target:
    """The near-symmetric target (2, ..., 2, 1) / (2n - 1)."""
    if n < 1:
        raise ValueError("need at least one voter")
    den = 2 * n - 1
    return Target(kind, tuple([Fraction(2, den)] * (n - 1) + [Fraction(1, den)]))


class InverseMode(enum.Enum):
    EXACT_MIN = "exact-min"
    HEURISTIC_UPPER_BOUND = "heuristic-upper-bound"


@dataclass
class InverseResult:
    mode: InverseMode
    target: Target
    metric: Metric
    game: WeightedGame
    vector: PowerVector
    distance: Fraction
    evaluations: int = 0
    seed: int | None = None

    @property
    def decimal(self) -> str:
        return decimal_str(self.distance)


def inverse_exact(target: Target, metric: Metric, store: VectorStore, certificates) -> InverseResult:
    """True closest weighted game from a full catalog.

    store holds the deduplicated vectors of every weighted game with the
    target's voter count, and certificates[i] is the (quota, weights...)
    row of the game that store.reps points at.  Catalog games list their
    voters strongest-first, so the target is searched sorted the same
    way: by the rearrangement inequality, pairing both vectors in sorted
    order minimises L1 and Linf distance over all relabellings.  The
    game's weights and its vector are then mapped back to the target's
    voter order, which leaves the distance unchanged.
    """
    n = target.n
    if store.n != n:
        raise ValueError(f"store has {store.n} voters, target has {n}")
    order = sorted(range(n), key=lambda i: -target.values[i])
    ranked = Target(target.kind, tuple(target.values[i] for i in order))
    qnums, qden = ranked.common_ints()
    res = store.nearest(qnums, qden, metric)
    row = certificates[int(store.reps[res.index])]
    found = store.vector(res.index)
    weights = [0] * n
    nums = [0] * n
    for rank, voter in enumerate(order):
        weights[voter] = int(row[1 + rank])
        nums[voter] = found.nums[rank]
    return InverseResult(
        mode=InverseMode.EXACT_MIN,
        target=target,
        metric=metric,
        game=WeightedGame(int(row[0]), weights),
        vector=PowerVector(found.kind, nums, found.den),
        distance=res.dist,
        evaluations=len(store),
    )


# ---------------------------------------------------------------------------
# Heuristic search
# ---------------------------------------------------------------------------


def _proportional_start(values: Sequence[Fraction], total: int) -> list[int]:
    """Largest-remainder rounding of total * values to integers."""
    ideal = [v * total for v in values]
    base = [int(x) for x in ideal]  # floor: entries are nonnegative
    leftover = total - sum(base)
    order = sorted(range(len(values)), key=lambda i: (base[i] - ideal[i], i))
    for i in range(leftover):
        base[order[i]] += 1
    if all(b == 0 for b in base):
        base[0] = 1
    return base


class _QuotaScan:
    """Per-candidate evaluator: one DP sweep covers every quota at once."""

    def __init__(self, target: Target, metric: Metric):
        self.target = target
        self.metric = metric
        self.n = target.n
        self.tnums, self.tden = target.common_ints()
        self.fact = _factorials(self.n)
        n = self.n
        self.fprod = [self.fact[k] * self.fact[n - 1 - k] for k in range(n)]
        self.fits_int64 = self.fact[n] <= 2**62

    def run(self, weights: Sequence[int]):
        """Best quota for these weights: (distance, quota, vector)."""
        n = self.n
        total = sum(weights)
        if total == 0:
            return None
        # dp over all voters, then per-voter removal by reverse DP.
        dp = np.zeros((n + 1, total + 1), dtype=np.int64)
        dp[0, 0] = 1
        filled = 0
        for w in weights:
            filled += 1
            for k in range(filled, 0, -1):
                dp[k, w:] += dp[k - 1, : total + 1 - w]

        ts = np.arange(1, total + 1)
        # swing_profiles[i][k][t-1] = number of size-k coalitions of the
        # others whose sum lands in the swing window of voter i at quota t.
        per_voter_nums: list[list[int]] = []
        pbi_rows: list[list[int]] = []
        for i in range(n):
            w = weights[i]
            if w == 0:
                per_voter_nums.append([0] * total)
                pbi_rows.append([0] * total)
                continue
            wo = np.zeros((n, total + 1), dtype=np.int64)
            wo[0] = dp[0]
            for k in range(1, n):
                wo[k] = dp[k]
                wo[k, w:] -= wo[k - 1, : total + 1 - w]
            cum = np.cumsum(wo, axis=1)
            hi = cum[:, ts - 1]
            lo_idx = ts - 1 - w
            lo = np.where(lo_idx >= 0, cum[:, np.maximum(lo_idx, 0)], 0)
            cnt = hi - lo  # (k, t)
            if self.fits_int64:
                nums = np.array(self.fprod, dtype=np.int64) @ cnt
                per_voter_nums.append([int(x) for x in nums])
            else:
                cols = cnt.T.tolist()
                per_voter_nums.append(
                    [sum(f * c for f, c in zip(self.fprod, col)) for col in cols]
                )
            pbi_rows.append([int(x) for x in cnt.sum(axis=0)])

        b = self.tden
        a = self.tnums
        l1 = self.metric is Metric.L1
        best = None
        if self.target.kind == "ssi":
            den_all = self.fact[n]
            for t in range(1, total + 1):
                acc = 0
                for i in range(n):
                    d = abs(per_voter_nums[i][t - 1] * b - a[i] * den_all)
                    acc = acc + d if l1 else max(acc, d)
                cand = Fraction(acc, den_all * b)
                if best is None or cand < best[0]:
                    nums = [per_voter_nums[i][t - 1] for i in range(n)]
                    best = (cand, t, PowerVector("ssi", nums, den_all))
        else:
            for t in range(1, total + 1):
                tot = sum(pbi_rows[i][t - 1] for i in range(n))
                acc = 0
                for i in range(n):
                    d = abs(pbi_rows[i][t - 1] * b - a[i] * tot)
                    acc = acc + d if l1 else max(acc, d)
                cand = Fraction(acc, tot * b)
                if best is None or cand < best[0]:
                    nums = [pbi_rows[i][t - 1] for i in range(n)]
                    best = (cand, t, PowerVector("pbi", nums, tot))
        return best


def inverse_heuristic(
    target: Target,
    metric: Metric,
    *,
    weight_total: int = 100,
    budget: int = 800,
    seed: int = 0,
) -> InverseResult:
    """Hill-climbing upper bound for the inverse problem.

    Starts from the largest-remainder rounding of the target to integer
    weights of the given total, scans all quotas per candidate, and moves
    by single-unit weight changes; stalled climbs restart from seeded
    perturbations until the evaluation budget is spent.  Deterministic in
    (seed, budget), and monotone in budget.
    """
    n = target.n
    if n > MAX_HEURISTIC_VOTERS:
        raise ValueError(f"heuristic search supports up to {MAX_HEURISTIC_VOTERS} voters")
    if weight_total < 1:
        raise ValueError("weight_total must be positive")
    if budget < 1:
        raise ValueError("budget must be positive")
    scan = _QuotaScan(target, metric)
    rng = random.Random(seed)
    memo: dict[tuple[int, ...], object] = {}
    evals = 0
    best: tuple | None = None  # (distance, weights, quota, vector)

    def evaluate(w: list[int]):
        nonlocal evals, best
        key = tuple(w)
        if key in memo:
            return memo[key]
        if evals >= budget:
            return None
        evals += 1
        rec = scan.run(w)
        memo[key] = rec
        if rec is not None:
            cand = (rec[0], key, rec[1], rec[2])
            if best is None or cand[0] < best[0] or (cand[0] == best[0] and cand[1] < best[1]):
                best = cand
        return rec

    start = _proportional_start(target.values, weight_total)
    stalls = 0
    while evals < budget:
        before = evals
        rec = evaluate(start)
        if rec is None:
            break
        current_w = list(start)
        current = memo[tuple(start)]
        while True:
            moves = []
            for i in range(n):
                up = list(current_w)
                up[i] += 1
                moves.append(up)
            for i in range(n):
                if current_w[i] >= 1 and sum(current_w) > 1:
                    down = list(current_w)
                    down[i] -= 1
                    moves.append(down)
            scored = []
            out_of_budget = False
            for mv in moves:
                r = evaluate(mv)
                if r is None and tuple(mv) not in memo:
                    out_of_budget = True
                    break
                if r is not None:
                    scored.append((r[0], tuple(mv)))
            improving = [s for s in scored if current is not None and s[0] < current[0]]
            if not improving or out_of_budget:
                break
            improving.sort()
            current_w = list(improving[0][1])
            current = memo[improving[0][1]]
        if evals == before:
            # A fully memoized restart; a few in a row means the
            # neighborhood is exhausted.
            stalls += 1
            if stalls >= 20:
                break
        else:
            stalls = 0
        # Seeded restart: alternate between hopping off the incumbent
        # best with a bigger kick and a fresh proportional start at a
        # different weight granularity (optima often want other totals).
        if best is not None and rng.random() < 0.5:
            kick = max(2, weight_total // 8)
            start = [max(0, w + rng.randint(-kick, kick)) for w in best[1]]
        else:
            total = rng.randint(weight_total, 2 * weight_total)
            spread = max(1, total // 10)
            start = [
                max(0, s + rng.randint(-spread, spread))
                for s in _proportional_start(target.values, total)
            ]
        if all(x == 0 for x in start):
            start[0] = 1

    if best is None:
        raise RuntimeError("no candidate could be evaluated within the budget")
    dist, wkey, quota, vec = best
    game = WeightedGame(quota, [Fraction(x) for x in wkey])
    return InverseResult(
        mode=InverseMode.HEURISTIC_UPPER_BOUND,
        target=target,
        metric=metric,
        game=game,
        vector=vec,
        distance=dist,
        evaluations=evals,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Padding workflow
# ---------------------------------------------------------------------------


@dataclass
class PaddedSearchReport:
    kind: str
    metric: Metric
    n: int
    mode: InverseMode
    results: list[InverseResult]
    bound: Fraction

    @property
    def decimal(self) -> str:
        return decimal_str(self.bound)


def padded_target_search(
    bases: Sequence[Game],
    n: int,
    metric: Metric,
    kind: str,
    *,
    budget: int = 800,
    seed: int = 0,
    store: VectorStore | None = None,
    certificates=None,
) -> PaddedSearchReport:
    """Pad each base game with null voters up to n, then approximate its
    power vector by a weighted game.

    Every resulting distance is achievable, so the largest of them lower
    bounds the worst-case gap at n; with the weighted store and
    certificates of n voters (see inverse_exact) the per-target answers
    are exact minima, otherwise heuristic upper bounds of those minima.
    """
    if not bases:
        raise ValueError("need at least one base game")
    results = []
    for base in bases:
        pad = n - base.n
        if pad < 0:
            raise ValueError(f"base game has {base.n} voters, more than the target {n}")
        padded = add_null_voters(base, pad)
        target = Target.from_vector(power_vector(padded, kind))
        if store is not None:
            results.append(inverse_exact(target, metric, store, certificates))
        else:
            results.append(inverse_heuristic(target, metric, budget=budget, seed=seed))
    bound = max(r.distance for r in results)
    mode = InverseMode.EXACT_MIN if store is not None else InverseMode.HEURISTIC_UPPER_BOUND
    return PaddedSearchReport(kind=kind, metric=metric, n=n, mode=mode, results=results, bound=bound)
