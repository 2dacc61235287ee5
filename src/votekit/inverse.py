"""Inverse problems: from a target power distribution to a nearby game.

Two modes with very different guarantees:

* inverse_exact scans a complete catalog of weighted games through the
  nearest-neighbor store, so its answer is the true minimum (EXACT_MIN).
  That is only possible where the catalog exists (n <= 8).
* inverse_heuristic hill-climbs over integer weight vectors of a fixed
  total.  It scores every quota of a candidate in one exact numpy pass,
  with one swing profile per distinct weight (_QuotaScan), and keeps the
  smallest quota among the best.  Its answer is an upper bound on the
  true minimum (HEURISTIC_UPPER_BOUND) and is deterministic for a given
  seed and budget; a larger budget only extends the evaluation sequence,
  so it can never return a worse distance.
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
from .geometry import Metric, VectorStore, distance, _exact_dtype, _INT64_MAX
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
    """Per-candidate evaluator: every quota of one weight vector in one
    exact numpy pass.

    full[k, s] counts the coalitions of size k and weight sum at most s;
    a forward DP over the voters gives it.  The same counts among the
    other voters of a voter of weight w follow from the removal recurrence

        below[k, s] = full[k, s] - below[k - 1, s - w],

    which depends only on w.  So it runs once per distinct weight, all of
    them in lockstep with one gather per coalition size: voters of equal
    weight share a swing profile, and weight zero gets the empty one.

    A voter of weight w swings at quota t for the coalitions of the others
    with sum in [t - w, t).  Those with sum below t - w are, with the
    voter added, the coalitions of all voters that contain it and have
    sum below t, so the swings of size k number

        below[k, t - 1] + below[k + 1, t - 1] - full[k + 1, t - 1],

    for every size and every quota at once.  Numerators and distances
    follow for all quotas together; the first (smallest) best quota wins,
    and only it gets a Fraction and a PowerVector.

    Everything is an exact integer: int64 where a bound on the magnitudes
    shows that nothing can overflow, Python integers in object arrays
    otherwise.  No float enters a decision.
    """

    def __init__(self, target: Target, metric: Metric):
        self.target = target
        self.metric = metric
        self.n = n = target.n
        tnums, self.tden = target.common_ints()
        self.tnums = np.array(tnums, dtype=object)
        self.fact = _factorials(n)
        # Shapley-Shubik numerators in units of the size weights' gcd: a
        # numerator sums nonnegative terms up to n! / unit, which fits in
        # int64 up to n = 42.
        fprod = [self.fact[k] * self.fact[n - 1 - k] for k in range(n)]
        self.unit = math.gcd(*fprod)
        den = self.fact[n] // self.unit
        self.fprod = np.array([f // self.unit for f in fprod], dtype=_exact_dtype(den))
        # SSI distances over the lcm of den and the target's denominator:
        # every term is at most that lcm, and an L1 sum at most twice it.
        self.ssi_den = math.lcm(den, self.tden)
        self.ssi_scale = self.ssi_den // den
        self.ssi_goal = np.array(
            [a * (self.ssi_den // self.tden) for a in tnums],
            dtype=_exact_dtype(2 * self.ssi_den),
        )[:, None]

    def run(self, weights: Sequence[int]):
        """Best quota for these weights: (distance, quota, vector)."""
        n = self.n
        total = sum(weights)
        if total == 0:
            return None
        width = total + 1
        # With at most MAX_HEURISTIC_VOTERS = 64 voters, coalition counts
        # stay below C(64, 32) < 2**63.  Each voter adds the coalitions so
        # far (sizes up to joined, sums up to reach) shifted by one in size
        # and w in sum; numpy buffers the overlapping operands, so every
        # voter joins at most once.
        dp = np.zeros((n + 1, width), dtype=np.int64)
        dp[0, 0] = 1
        joined = reach = 0
        for w in weights:
            dp[1 : joined + 2, w : reach + w + 1] += dp[: joined + 1, : reach + 1]
            joined += 1
            reach += w
        full = np.cumsum(dp, axis=1)
        # below[k, j, pad + s]: the counts among the others of a voter of
        # weight distinct[j].  The pad columns stay zero, so a shift by a
        # weight reads zeros off the left edge; back holds those shifted
        # positions in one lane-major row, and row n stays zero.
        distinct = sorted(set(weights))
        lane = {w: j for j, w in enumerate(distinct)}
        pad = distinct[-1]
        span = pad + width
        starts = np.array([j * span + pad - w for j, w in enumerate(distinct)])
        back = starts[:, None] + np.arange(width)
        below = np.zeros((n + 1, len(distinct), span), dtype=np.int64)
        below[0, :, pad:] = full[0]
        for k in range(1, n):
            np.subtract(full[k], below[k - 1].take(back), out=below[k, :, pad:])
        # cnt[k, j, t - 1]: swings at size k of weight distinct[j], quota t
        cnt = below[:-1, :, pad:-1] + below[1:, :, pad:-1] - full[1:, None, :-1]
        row = [lane[w] for w in weights]
        if self.target.kind == "ssi":
            return self._best_ssi(cnt, row)
        return self._best_pbi(cnt, row)

    def _gaps(self, diff):
        """Per quota, the L1 or Linf norm of the voters' differences."""
        diff = np.abs(diff)
        return diff.sum(axis=0) if self.metric is Metric.L1 else diff.max(axis=0)

    def _best_ssi(self, cnt, row):
        n, lanes, quotas = cnt.shape
        if self.fprod.dtype == object:
            cnt = cnt.astype(object)
        nums = (self.fprod @ cnt.reshape(n, -1)).reshape(lanes, quotas)[row]
        if self.ssi_goal.dtype == object:
            nums = nums.astype(object)
        acc = self._gaps(nums * self.ssi_scale - self.ssi_goal)
        # One denominator for every quota: the first smallest numerator wins.
        best = int(np.argmin(acc))
        vector = PowerVector("ssi", [x * self.unit for x in nums[:, best].tolist()], self.fact[n])
        return Fraction(int(acc[best]), self.ssi_den), best + 1, vector

    def _best_pbi(self, cnt, row):
        n = self.n
        # A voter swings for at most 2**(n-1) <= 2**63 coalitions, so its
        # count fits in uint64; the total over n voters may not.
        if n << (n - 1) > _INT64_MAX:
            swings = cnt.sum(axis=0, dtype=np.uint64).astype(object)[row]
        else:
            swings = cnt.sum(axis=0)[row]
        tot = swings.sum(axis=0)
        # |swings * b - a * tot| <= tot * b per voter, the L1 sum <= 2 tot b.
        if swings.dtype != object and 2 * int(tot.max()) * self.tden > _INT64_MAX:
            swings = swings.astype(object)
            tot = swings.sum(axis=0)
        acc = self._gaps(swings * self.tden - self.tnums.astype(swings.dtype)[:, None] * tot)
        # The first smallest acc / tot.  A quota whose floor of acc / tot
        # is above the least floor has a larger ratio, so only the quotas
        # at the least floor are compared, by exact cross-multiplication.
        floors = acc // tot
        acc, tot = acc.tolist(), tot.tolist()
        ties = np.flatnonzero(floors == floors.min()).tolist()
        best = ties[0]
        for t in ties[1:]:
            if acc[t] * tot[best] < acc[best] * tot[t]:
                best = t
        vector = PowerVector("pbi", swings[:, best].tolist(), tot[best])
        return Fraction(acc[best], tot[best] * self.tden), best + 1, vector


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
