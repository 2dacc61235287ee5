"""Inverse problems: from a target power distribution to a nearby game.

A target is an indices.PowerVector: parse_target_file and beta_target
build one, and any computed index is one already.  Its key() gives the
exact integers that the searches compare against.

Two modes with very different guarantees:

* inverse_exact scans a tier's store of every weighted game's vector
  (pipeline.weighted_store) and reads the certificate row of the one game
  it answers with, so its answer is the true minimum (EXACT_MIN).  That
  is only possible where the catalog exists (n <= 8).
* inverse_heuristic hill-climbs over integer weight vectors of a fixed
  total.  It scores every quota of a candidate in one exact numpy pass,
  with one swing profile per distinct weight, and keeps the smallest
  quota among the best (_QuotaScan).  All the single-voter +1 and -1
  moves of the incumbent are scored in one pass too: a stayer's new
  counts are its old ones less the coalitions with the mover at its old
  weight plus those at its new one, read from tables of the incumbent
  with the mover and the stayer removed.  Its answer is an upper bound
  on the true minimum (HEURISTIC_UPPER_BOUND) and is deterministic for a
  given seed and budget; a larger budget only extends the evaluation
  sequence, so it can never return a worse distance.
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
from .geometry import Metric, _exact_dtype, _INT64_MAX
from .indices import (
    MAX_DP_VOTERS,
    PowerVector,
    decimal_str,
    power_vector,
    _factorials,
    _removal_table,
    _shift_index,
    _size_sum_counts,
    _swing_weights,
)
from .pipeline import weighted_games, weighted_store

__all__ = [
    "parse_target_file",
    "beta_target",
    "InverseMode",
    "InverseResult",
    "inverse_exact",
    "inverse_heuristic",
    "padded_target_search",
    "PaddedSearchReport",
]


def parse_target_file(text: str, normalize: bool = False) -> PowerVector:
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
    if sum(values) != 1:
        raise ValueError(
            "target entries must sum to exactly 1; renormalize first if the values are rounded"
        )
    den = math.lcm(*(v.denominator for v in values))
    return PowerVector(fields["index"], [v * den for v in values], den)


def beta_target(n: int, kind: str) -> PowerVector:
    """The near-symmetric target (2, ..., 2, 1) / (2n - 1)."""
    if n < 1:
        raise ValueError("need at least one voter")
    return PowerVector(kind, [2] * (n - 1) + [1], 2 * n - 1)


class InverseMode(enum.Enum):
    EXACT_MIN = "exact-min"
    HEURISTIC_UPPER_BOUND = "heuristic-upper-bound"


@dataclass
class InverseResult:
    mode: InverseMode
    target: PowerVector
    metric: Metric
    game: WeightedGame
    vector: PowerVector
    distance: Fraction
    evaluations: int = 0
    seed: int | None = None

    @property
    def decimal(self) -> str:
        return decimal_str(self.distance)


def inverse_exact(target: PowerVector, metric: Metric, cache_dir=None) -> InverseResult:
    """True closest weighted game, from the full catalog of the target's
    voter count.

    A tier query, like pipeline.omega_tier: it scans the tier's store of
    the distinct weighted vectors of the target's kind, then reads the one
    certificate row of the answer's game.  Catalog games list their
    voters strongest-first, so the target is searched sorted the same
    way: by the rearrangement inequality, pairing both vectors in sorted
    order minimises L1 and Linf distance over all relabellings.  The
    game's weights and its vector are then mapped back to the target's
    voter order, which leaves the distance unchanged.
    """
    n = target.n
    store = weighted_store(n, target.kind, cache_dir)
    order = sorted(range(n), key=lambda i: -target.nums[i])
    rank = sorted(range(n), key=order.__getitem__)  # rank[voter]: its place in order
    res = store.nearest(PowerVector(target.kind, [target.nums[i] for i in order], target.den), metric)
    (game,) = weighted_games(n, [store.reps[res.index]], cache_dir).values()
    found = store.vector(res.index)
    return InverseResult(
        mode=InverseMode.EXACT_MIN,
        target=target,
        metric=metric,
        game=WeightedGame(game.quota, [game.weights[r] for r in rank]),
        vector=PowerVector(found.kind, [found.nums[r] for r in rank], found.den),
        distance=res.dist,
        evaluations=len(store),
    )


# ---------------------------------------------------------------------------
# Heuristic search
# ---------------------------------------------------------------------------


def _proportional_start(target: PowerVector, total: int) -> list[int]:
    """Largest-remainder rounding of total * target to integers."""
    base, rest = zip(*(divmod(x * total, target.den) for x in target.nums))
    base = list(base)
    order = sorted(range(len(base)), key=lambda i: (-rest[i], i))
    for i in order[: total - sum(base)]:
        base[i] += 1
    if all(b == 0 for b in base):
        base[0] = 1
    return base


# A lane block of pair tables holds about this many bytes (blocks of 2 MB,
# past the cache, ran slower), and at least one lane: as much as the
# tables of one candidate in _QuotaScan.run.
_BLOCK_BYTES = 1 << 19


def _shifted(table: np.ndarray, pad: int, shifts, count: int) -> np.ndarray:
    """table[..., pad + s - shift] for s < count, one shift per row."""
    return table.take(_shift_index(table.shape, pad, shifts, count))


def _step_diff(table: np.ndarray, pad: int, distinct: Sequence[int]) -> np.ndarray:
    """table[..., j, s] - table[..., j, s - distinct[j]], with the same
    zero pad columns."""
    out = np.zeros_like(table)
    out[..., pad:] = table[..., pad:] - _shifted(table, pad, distinct, table.shape[-1] - pad)
    return out


class _QuotaScan:
    """Scores weight vectors over every quota at once, exactly.

    A voter of weight w swings at quota t for the coalitions of the
    others with sum in [t - w, t).  Let c_k weigh a swing in a coalition
    of k others: k! (n-1-k)! in units of their gcd for the Shapley-Shubik
    index, 1 for Penrose-Banzhaf.  If C(s) sums c_k times the number of
    coalitions of the others of size k and sum at most s, the voter's
    numerator at quota t is C(t - 1) - C(t - 1 - w).

    run scores one vector.  The index DPs' forward pass
    (indices._size_sum_counts), summed along the sum axis, counts the
    coalitions of each size and sum at most s; their removal recurrence
    (indices._removal_table) gives the same counts O_a among the others
    of a voter of weight d_a, once per distinct weight (voters of equal
    weight share a profile, and weight zero gets the empty one); and
    C = A1_a = sum_k c_k O_a[k].

    neighbours scores the +1 and -1 moves of single voters of an
    incumbent from the incumbent's own tables.  Removing a second voter,
    of weight d_b, from O_a gives the pair tables P_ab, contracted over
    size once:

        B_ab = sum_k c_(k+1) P_ab[k].

    When voter i (weight d_a) moves to weight w', another voter j (weight
    d_b) keeps the coalitions of its others that leave i out, those of
    P_ab, and finds those with i one size and w' rather than d_a heavier:

        C_j(s) = A1_b[s] - B_ab[s - d_a] + B_ab[s - w'].

    The mover's own C is A1_a, read with the new weight w'.  Both depend
    on (d_a, w', d_b) only, so the movers of one weight and one direction
    share one profile per lane.  P_ab needs a voter of weight d_a among
    the others of j: a lone voter of its weight has no pair (a, a), and
    that row, the mover's own, is replaced.  The pair tables are built a
    block of mover lanes at a time, near _BLOCK_BYTES each.

    Per quota the distance sums (L1) or maximises (Linf) one term per
    voter.  A mover's terms are its group's, with its own replaced: the
    group's total less the old term plus the moved one (L1), or the
    larger of the moved term and the largest of the others, the group's
    largest unless the mover holds it (Linf).  The first (smallest) best
    quota wins.

    Everything is an exact integer: int64 where a bound on the magnitudes
    shows that nothing can overflow, Python integers in object arrays
    otherwise.  The Shapley-Shubik contractions stay below n! / unit,
    under 2**58 up to n = 42 and past int64 from n = 43; the
    Penrose-Banzhaf counts stay below n * 2**(n-1), inside int64 up to
    n = 58.  A group's total of distance terms is at most three common
    denominators of a distance (two for the move's own terms, one for
    the replaced term), which bounds the distance arithmetic.  No float
    enters a decision.
    """

    def __init__(self, target: PowerVector, metric: Metric):
        self.metric = metric
        self.n = n = target.n
        *tnums, self.tden = target.key()
        self.tnums = np.array(tnums, dtype=object)[:, None]
        self.fact = _factorials(n)
        if target.kind == "pbi":
            self.coef = None
            self.wide = n << (n - 1) > _INT64_MAX
            return
        # Shapley-Shubik numerators in units of the size weights' gcd: a
        # numerator sums nonnegative terms up to n! / unit.
        fprod = _swing_weights(n, "ssi")
        self.unit = math.gcd(*fprod)
        den = self.fact[n] // self.unit
        self.coef = np.array([f // self.unit for f in fprod], dtype=_exact_dtype(den))
        self.wide = self.coef.dtype == object
        # SSI distances over the lcm of den and the target's denominator:
        # every term is at most that lcm.
        self.ssi_den = math.lcm(den, self.tden)
        self.ssi_scale = self.ssi_den // den
        self.ssi_goal = np.array(
            [a * (self.ssi_den // self.tden) for a in tnums],
            dtype=_exact_dtype(3 * self.ssi_den),
        )[:, None]

    def _contract(self, table: np.ndarray, offset: int = 0) -> np.ndarray:
        """The sum over sizes k of c_(k + offset) * table[k]."""
        flat = table.reshape(len(table), math.prod(table.shape[1:]))
        if self.wide:
            flat = flat.astype(object)
        if self.coef is None:
            out = flat.sum(axis=0)
        else:
            out = self.coef[offset : offset + len(table)] @ flat
        return out.reshape(table.shape[1:])

    def _exact(self, nums, tot):
        """nums (and the Penrose-Banzhaf totals) as Python integers when
        the distance arithmetic could leave int64."""
        if nums.dtype == object:
            return nums, tot
        if self.coef is None:
            wide = 3 * int(tot.max()) * self.tden > _INT64_MAX
        else:
            wide = self.ssi_goal.dtype == object
        if wide:
            return nums.astype(object), None if tot is None else tot.astype(object)
        return nums, tot

    def _terms(self, nums, tot):
        """Each voter's distance term for numerators nums[..., voter, quota],
        over the common denominator of the quota's distance."""
        if self.coef is None:
            return np.abs(nums * self.tden - self.tnums.astype(nums.dtype) * tot[..., None, :])
        return np.abs(nums * self.ssi_scale - self.ssi_goal)

    def _pick(self, acc, tot):
        """Per row of acc, the first quota column with the least distance:
        (columns, distances)."""
        if self.coef is not None:
            best = acc.argmin(axis=1)
            got = acc[np.arange(len(acc)), best].tolist()
            return best.tolist(), [Fraction(a, self.ssi_den) for a in got]
        # The first least acc / tot, exactly.  Every tot is at most big,
        # so two different ratios differ by at least 1 / big**2, and
        # floor(acc * big**2 / tot) orders them strictly while equal ratios
        # tie.  A ratio is at most 2 * tden (see _exact), which bounds the
        # keys.
        big = int(tot.max())
        scale = big * big
        if acc.dtype != object and max(big, 2 * self.tden + 1) * scale > _INT64_MAX:
            acc, tot = acc.astype(object), tot.astype(object)
        whole = acc // tot
        best = (whole * scale + (acc - whole * tot) * scale // tot).argmin(axis=1).tolist()
        rows = np.arange(len(acc))
        got = zip(acc[rows, best].tolist(), tot[rows, best].tolist())
        return best, [Fraction(a, t * self.tden) for a, t in got]

    def vector(self, column) -> PowerVector:
        """The power vector of one candidate's numerators at its quota."""
        nums = [int(x) for x in column]
        if self.coef is None:
            return PowerVector("pbi", nums, sum(nums))
        return PowerVector("ssi", [x * self.unit for x in nums], self.fact[self.n])

    def run(self, weights: Sequence[int]):
        """Best quota for these weights: (distance, quota, vector)."""
        n = self.n
        total = sum(weights)
        if total == 0:
            return None
        distinct = sorted(set(weights))
        lane = {w: j for j, w in enumerate(distinct)}
        pad = distinct[-1]
        counts = np.cumsum(_size_sum_counts(weights, n), axis=1)[:n, None]
        a1 = self._contract(_removal_table(counts, distinct, pad))[0]
        # nums[j, t - 1]: the numerator of voter j at quota t
        prof = _step_diff(a1, pad, distinct)[:, pad:-1]
        nums = prof[[lane[w] for w in weights]]
        nums, tot = self._exact(nums, nums.sum(axis=0) if self.coef is None else None)
        terms = self._terms(nums, tot)
        acc = terms.sum(axis=0) if self.metric is Metric.L1 else terms.max(axis=0)
        (best,), (dist,) = self._pick(acc[None], None if tot is None else tot[None])
        return dist, best + 1, self.vector(nums[:, best])

    def neighbours(self, weights: Sequence[int], moves: Sequence[tuple[int, int]]) -> list:
        """Score moves of weights, each (voter, step) with step +1 or -1
        and a total of at least 1 after it: per move (distance, quota,
        numerators at that quota, for vector)."""
        n = self.n
        total = sum(weights)
        distinct = sorted(set(weights))
        lanes = len(distinct)
        lane = {w: j for j, w in enumerate(distinct)}
        row = np.array([lane[w] for w in weights])
        lone = np.bincount(row, minlength=lanes) == 1
        pad = distinct[-1] + 1
        span = pad + total + 1
        counts = np.cumsum(_size_sum_counts(weights, n), axis=1)[:n, None]
        # others[k, a, pad + s]: the counts among the others of a voter of
        # lane a; a1[a] their contraction, and inc[a, t - 1] the numerator
        # of a voter of lane a at quota t
        others = _removal_table(counts, distinct, pad)[:, 0]
        a1 = self._contract(others)
        inc = _step_diff(a1, pad, distinct)[:, pad:]
        by_lane: dict[int, list[tuple[int, int, int]]] = {}
        for m, (i, step) in enumerate(moves):
            by_lane.setdefault(int(row[i]), []).append((m, i, step))
        movable = sorted(by_lane)
        # db[r, b]: B_ab's share of a numerator of a voter of lane b when
        # lane a = movable[r] moves, padded; built a block of lanes at a time
        db = np.empty((len(movable), lanes, span), dtype=object if self.wide else np.int64)
        per = max(1, _BLOCK_BYTES // (8 * n * lanes * span))
        for lo in range(0, len(movable), per):
            block = movable[lo : lo + per]
            pairs = _removal_table(others[: n - 1, block, pad:], distinct, pad)
            db[lo : lo + per] = _step_diff(self._contract(pairs, 1), pad, distinct)
        # one group per lane and direction: its movers share a profile
        group: dict[tuple[int, int], int] = {}
        movers = []
        for r, j in enumerate(movable):
            for m, i, step in by_lane[j]:
                movers.append((m, i, group.setdefault((r, step), len(group)), step))
        rs = np.array([r for r, _ in group])
        lanes_g = np.array(movable)[rs]
        old = np.array(distinct)[lanes_g]
        moved = old + np.array([step for _, step in group])
        part = db[rs]
        prof = inc + _shifted(part, pad, moved[:, None], total + 1) - _shifted(part, pad, old[:, None], total + 1)
        # a lone voter of its weight has no pair (a, a): that row is the
        # mover's own, and is replaced in _score
        lone_g = np.flatnonzero(lone[lanes_g])
        prof[lone_g, lanes_g[lone_g]] = 0
        mine = a1[lanes_g]
        own = mine[:, pad:] - _shifted(mine, pad, moved, total + 1)
        return self._score(prof, own, lanes_g, row, movers, total)

    def _score(self, prof, own, group_lanes, row, movers, total) -> list:
        """Score movers[k] = (move, voter, group, step) as neighbours does:
        prof[g, b, t - 1] is the numerator of a staying voter of lane b
        when group g's lane moves, own[g, t - 1] the mover's own, for
        quotas t up to total + 1."""
        g = np.array([x[2] for x in movers])
        vi = np.array([x[1] for x in movers])
        nums = prof[:, row]
        tot = None
        if self.coef is None:
            # every voter's count, less the mover's old one, plus its new one
            tot = nums.sum(axis=1) - prof[np.arange(len(prof)), group_lanes] + own
        nums, tot = self._exact(nums, tot)
        if nums.dtype == object:
            own = own.astype(object)
        stay = self._terms(nums, tot)
        mine = self._terms(own[:, None, :], tot)[g, vi]
        if self.metric is Metric.L1:
            acc = stay.sum(axis=1)[g] - stay[g, vi] + mine
        else:
            # the others' maximum: the largest term unless the mover holds it
            top = stay.argmax(axis=1)
            first = np.take_along_axis(stay, top[:, None], axis=1)[:, 0]
            np.put_along_axis(stay, top[:, None], -1, axis=1)
            second = stay.max(axis=1)
            acc = np.maximum(np.where(top[g] == vi[:, None], second[g], first[g]), mine)
        out: list = [None] * len(movers)
        up = np.array([x[3] == 1 for x in movers])
        for sel, quotas in ((np.flatnonzero(up), total + 1), (np.flatnonzero(~up), total - 1)):
            if not len(sel):
                continue
            best, dists = self._pick(acc[sel, :quotas], None if tot is None else tot[g[sel], :quotas])
            columns = nums[g[sel], :, best]
            columns[np.arange(len(sel)), vi[sel]] = own[g[sel], best]
            for k, s in enumerate(sel.tolist()):
                out[movers[s][0]] = (dists[k], best[k] + 1, columns[k])
        return out


def inverse_heuristic(
    target: PowerVector,
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

    Each neighbourhood is scored in one pass (_QuotaScan.neighbours); the
    moves are counted, memoized and cut at the budget in the order
    up-moves then down-moves, voter by voter, exactly as if they were
    scanned one at a time.
    """
    n = target.n
    if n > MAX_DP_VOTERS:
        raise ValueError(f"heuristic search supports up to {MAX_DP_VOTERS} voters")
    if weight_total < 1:
        raise ValueError("weight_total must be positive")
    if budget < 1:
        raise ValueError("budget must be positive")
    scan = _QuotaScan(target, metric)
    rng = random.Random(seed)
    memo: dict[tuple[int, ...], Fraction] = {}
    evals = 0
    best: tuple | None = None  # (distance, weights, quota, vector)

    start = _proportional_start(target, weight_total)
    stalls = 0
    while evals < budget:
        before = evals
        key = tuple(start)
        if key not in memo:
            evals += 1
            dist, quota, vec = scan.run(start)
            memo[key] = dist
            if best is None or (dist, key) < best[:2]:
                best = (dist, key, quota, vec)
        current_w, current = start, memo[key]
        while True:
            moves = [(i, 1) for i in range(n)]
            if sum(current_w) > 1:
                moves += [(i, -1) for i in range(n) if current_w[i] >= 1]
            keys = []
            for i, step in moves:
                mv = list(current_w)
                mv[i] += step
                keys.append(tuple(mv))
            fresh = [k for k, mv in enumerate(keys) if mv not in memo]
            scored = fresh[: budget - evals]
            if scored:
                evals += len(scored)
                scores = dict(zip(scored, scan.neighbours(current_w, [moves[k] for k in scored])))
                for k, (dist, _, _) in scores.items():
                    memo[keys[k]] = dist
                # Of the new candidates only the least (distance, weights)
                # can become the best.
                k = min(scored, key=lambda k: (scores[k][0], keys[k]))
                dist, quota, column = scores[k]
                if best is None or (dist, keys[k]) < best[:2]:
                    best = (dist, keys[k], quota, scan.vector(column))
            if len(scored) < len(fresh):
                break  # the budget ran out inside this neighbourhood
            least = min((memo[mv], mv) for mv in keys)
            if not least[0] < current:
                break
            current, current_w = least[0], list(least[1])
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
                for s in _proportional_start(target, total)
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
) -> PaddedSearchReport:
    """Pad each base game with null voters up to n, then approximate its
    power vector by a weighted game with inverse_heuristic.

    Each per-target distance is achieved by the weighted game found, so it
    is a heuristic upper bound on that target's minimum distance, not the
    minimum itself.  bound is the largest of them, and it bounds the
    worst-case gap at n in neither direction: a game that is not a padded
    base can have a larger minimum, which puts the gap above bound, and a
    found distance above its target's minimum can put bound above the gap.
    """
    if not bases:
        raise ValueError("need at least one base game")
    results = []
    for base in bases:
        pad = n - base.n
        if pad < 0:
            raise ValueError(f"base game has {base.n} voters, more than the target {n}")
        target = power_vector(add_null_voters(base, pad), kind)
        results.append(inverse_heuristic(target, metric, budget=budget, seed=seed))
    return PaddedSearchReport(results=results, bound=max(r.distance for r in results))
