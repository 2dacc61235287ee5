"""Brute-force reference implementations the fast paths are tested against.

Everything here favours obviousness over speed: permutations are walked
one by one, subsets are enumerated in full, nearest neighbours come from
a linear scan with exact integer cross-multiplication.  Usable up to
about 7 voters.  The random games the oracles are fed come from here too,
as seeded generators and as hypothesis strategies.
"""

import math
import random
import struct
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from votekit.enumeration import iter_complete_chunks
from votekit.games import BoolCombo, DesirabilityOutcome, ExplicitGame, WeightedGame, _members, evaluate, to_explicit
from votekit.geometry import GapQueries, GapTracker, _reduced_rows, unique_rows
from votekit.indices import batch_ssi_numerators, batch_swing_counts
from votekit.inverse import InverseMode, InverseResult, _proportional_start, _QuotaScan


def ssi_by_permutations(g) -> tuple[Fraction, ...]:
    """Shapley-Shubik by walking every voter ordering."""
    n = g.n
    counts = [0] * n
    for order in permutations(range(n)):
        mask = 0
        for i in order:
            if evaluate(g, mask | (1 << i)) > evaluate(g, mask):
                counts[i] += 1
                break
            mask |= 1 << i
    total = sum(counts)
    return tuple(Fraction(c, total) for c in counts)


def pbi_swings_by_subsets(g) -> tuple[tuple[int, ...], int]:
    """Raw swing counts per voter by full subset enumeration."""
    n = g.n
    table = to_explicit(g).np_table
    counts = [0] * n
    for s in range(1 << n):
        for i in range(n):
            b = 1 << i
            if s & b and table[s] > table[s ^ b]:
                counts[i] += 1
    return tuple(counts), sum(counts)


def swing_profile_by_voter_dp(g) -> list[list[int]]:
    """Each voter's swings by the size of the coalition joined, from one
    forward DP per voter over the coalitions of the others, by size and
    one weight-sum axis per non-uniform leaf."""
    n = g.n
    leaves = []

    def plan(node):
        if isinstance(node, WeightedGame):
            t, w = node.scaled_ints()
            if len(set(w)) == 1:
                return ("size", -(-t // w[0]))
            leaves.append((t, w))
            return ("axis", len(leaves) - 1)
        return (node.op, tuple(plan(p) for p in node.parts))

    def wins(node):
        if node[0] == "size":
            return grid[0] >= node[1]
        if node[0] == "axis":
            return grid[node[1] + 1] >= leaves[node[1]][0]
        parts = [wins(p) for p in node[1]]
        return np.logical_and.reduce(parts) if node[0] == "and" else np.logical_or.reduce(parts)

    tree = plan(g)
    caps = [sum(w) for _, w in leaves]
    shape = (n + 1,) + tuple(c + 1 for c in caps)
    grid = np.indices(shape)
    win = wins(tree)
    profile = []
    for i in range(n):
        dp = np.zeros(shape, dtype=np.int64)
        dp[(0,) * len(shape)] = 1
        for v in range(n):
            if v != i:
                w = [lw[v] for _, lw in leaves]
                for k in range(n - 1, 0, -1):
                    dst = (k,) + tuple(slice(x, None) for x in w)
                    src = (k - 1,) + tuple(slice(0, c + 1 - x) for c, x in zip(caps, w))
                    dp[dst] += dp[src]
        w = [lw[i] for _, lw in leaves]
        gained = (slice(1, None),) + tuple(slice(x, None) for x in w)
        base = (slice(0, n),) + tuple(slice(0, c + 1 - x) for c, x in zip(caps, w))
        swing = win[gained] & ~win[base]
        profile.append([int(dp[base][k][swing[k]].sum()) for k in range(n)])
    return profile


def null_voters_by_table(g) -> tuple[int, ...]:
    """0-based voters whose presence never changes the outcome."""
    n = g.n
    table = to_explicit(g).np_table
    out = []
    for i in range(n):
        b = 1 << i
        if all(table[s | b] == table[s] for s in range(1 << n) if not s & b):
            out.append(i)
    return tuple(out)


def swap_symmetric(g, i: int, j: int) -> bool:
    """True when exchanging voters i and j (0-based) fixes the table."""
    table = to_explicit(g).np_table
    bi, bj = 1 << i, 1 << j
    for s in range(len(table)):
        has_i, has_j = bool(s & bi), bool(s & bj)
        if has_i != has_j and table[s] != table[s ^ bi ^ bj]:
            return False
    return True


def desirability_by_loop(g, i: int, j: int) -> DesirabilityOutcome:
    """How voter i (1-based) compares with voter j, one coalition holding
    neither at a time: i is at least as desirable when joining it wins
    wherever joining j does."""
    table = to_explicit(g).table
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    geq = leq = True
    for s in range(len(table)):
        if not s & (bi | bj):
            geq &= table[s | bi] >= table[s | bj]
            leq &= table[s | bj] >= table[s | bi]
    if geq and leq:
        return DesirabilityOutcome.EQUAL
    if geq or leq:
        return DesirabilityOutcome.GEQ if geq else DesirabilityOutcome.LEQ
    return DesirabilityOutcome.INCOMPARABLE


def is_complete_by_pairs(g) -> tuple[bool, tuple[int, ...] | None]:
    """is_complete from every pair of voters: the relation is total when no
    pair is incomparable, and voters sort by how many are strictly more
    desirable, ties by voter number."""
    n = g.n
    voters = range(1, n + 1)
    outcomes = {(i, j): desirability_by_loop(g, i, j) for i in voters for j in voters if i != j}
    if DesirabilityOutcome.INCOMPARABLE in outcomes.values():
        return False, None
    stronger = {v: sum(outcomes[u, v] is DesirabilityOutcome.GEQ for u in voters if u != v) for v in voters}
    return True, tuple(sorted(voters, key=lambda v: (stronger[v], v)))


def relabelled_by_loop(g, perm) -> bytes:
    """The outcome table with new voter k being old voter perm[k-1], one
    coalition at a time."""
    table = to_explicit(g).table
    out = bytearray(len(table))
    for m in range(len(table)):
        old = sum(1 << (p - 1) for k, p in enumerate(perm) if m >> k & 1)
        out[m] = table[old]
    return bytes(out)


def minwin_text_by_loop(g) -> str:
    """The minwin literal of a game: its winning coalitions that lose
    without any one member, ascending."""
    table = to_explicit(g).table
    minimal = [
        m
        for m in range(len(table))
        if table[m] and not any(table[m & ~(1 << b)] for b in range(g.n) if m >> b & 1)
    ]
    sets = ",".join("{" + ",".join(str(b + 1) for b in range(g.n) if m >> b & 1) + "}" for m in minimal)
    return f"n={g.n}; minwin={sets}"


def table_fault_by_loop(table: bytes) -> str | None:
    """The first fault of a would-be outcome table, as ExplicitGame words
    it, or None: an entry past 1, the empty coalition winning, the full
    coalition losing, then a coalition that wins while a superset of one
    more voter loses."""
    if max(table) > 1:
        return "table entries must be 0 or 1"
    if table[0]:
        return "not a simple game: the empty coalition wins"
    if not table[-1]:
        return "not a simple game: the full coalition loses"
    for m in range(len(table)):
        for b in range(len(table).bit_length() - 1):
            if table[m] > table[m | 1 << b]:
                return "table is not monotone"
    return None


def linear_nearest(rows, qnums, qden: int, l1: bool):
    """Exact nearest rows by linear scan.

    rows is a list of (numerators tuple, denominator); returns the
    minimum distance as a Fraction and the sorted list of all indices
    attaining it.
    """
    best_num, best_den = None, 1
    hits: list[int] = []
    for idx, (nums, den) in enumerate(rows):
        if l1:
            v = sum(abs(a * qden - q * den) for a, q in zip(nums, qnums))
        else:
            v = max(abs(a * qden - q * den) for a, q in zip(nums, qnums))
        d = den * qden
        if best_num is None or v * best_den < best_num * d:
            best_num, best_den = v, d
            hits = [idx]
        elif v * best_den == best_num * d:
            hits.append(idx)
    return Fraction(best_num, best_den), hits


def gap_reports_by_distinct_rows(store, nums, dens, cuts, metrics) -> dict:
    """Gap reports of the query rows nums / dens, one per metric, the way
    pipeline.omega_tier finds them: the distinct reduced rows, in
    lexicographic order and cut into chunks at the positions cuts (a cut
    past the last row closes at it), are bounded once for every metric and fed to one tracker per metric.  Each
    attaining distinct row is then reported once for every query row
    equal to it, by query index."""
    uniq, _, inverse = unique_rows(_reduced_rows(nums, dens))
    trackers = {metric: GapTracker(store, metric) for metric in metrics}
    edges = [0, *(min(cut, len(uniq)) for cut in cuts), len(uniq)]
    for a, b in zip(edges, edges[1:]):
        chunk = GapQueries(store, uniq[a:b], metrics)
        for tracker in trackers.values():
            tracker.feed(chunk, offset=a)
    reports = {}
    for metric, tracker in trackers.items():
        rep = tracker.report()
        pairs = [(int(j), vec) for i, vec in rep.attaining for j in np.flatnonzero(inverse == i)]
        rep.attaining = sorted(pairs, key=lambda pair: pair[0])
        reports[metric] = rep
    return reports


def vectors_by_kernels(n: int, kind: str, certificates=None) -> tuple[np.ndarray, np.ndarray]:
    """(numerators, denominators) of every game in catalog order, one row
    each, recomputed by the batch kernels apart from any tier file: of the
    complete games, from the enumeration's chunks, or, given the weighted
    games' (quota, weights...) certificate rows, of the games they win on."""
    if certificates is None:
        chunks = list(iter_complete_chunks(n))
    else:
        chunks = [(certificates[:, 1:] @ _members(n).T >= certificates[:, :1]).astype(np.uint8)]
    if kind == "ssi":
        nums = np.concatenate([batch_ssi_numerators(tables)[0] for tables in chunks])
        return nums, np.full(len(nums), math.factorial(n), dtype=np.int64)
    nums = np.concatenate([batch_swing_counts(tables) for tables in chunks])
    return nums, nums.sum(axis=1)


def count_distinct_rows(nums, dens) -> int:
    """Number of distinct vectors among the rows nums / dens, each row
    reduced to lowest terms on its own and kept in a set."""
    dens = np.broadcast_to(np.asarray(dens, dtype=np.int64), (len(nums),))
    seen = set()
    for row, den in zip(nums.tolist(), dens.tolist()):
        g = math.gcd(den, *row)
        seen.add((den // g, *(x // g for x in row)))
    return len(seen)


def store_rows(store) -> list[tuple[tuple[int, ...], int]]:
    """VectorStore rows as plain (numerators, denominator) pairs."""
    n = store.n
    out = []
    for row in store.rows.tolist():
        out.append((tuple(row[:n]), row[n]))
    return out


def random_weighted(rng, n: int) -> WeightedGame:
    """A random valid weighted game with small integer weights."""
    while True:
        w = [rng.randint(0, 9) for _ in range(n)]
        if sum(w) > 0:
            break
    q = rng.randint(1, sum(w))
    return WeightedGame(q, w)


def random_boolcombo(rng, n: int) -> BoolCombo:
    """A random and/or combination of weighted leaves, depth at most 2."""
    op, other = ("and", "or") if rng.random() < 0.5 else ("or", "and")
    leaves = [random_weighted(rng, n) for _ in range(3)]
    if rng.random() < 0.5:
        parts = leaves[: rng.randint(2, 3)]
    else:
        parts = [leaves[0], BoolCombo(other, leaves[1:])]
    return BoolCombo(op, parts)


@st.composite
def weighted_games(draw, max_n: int = 10, n: int | None = None, rational: bool = False) -> WeightedGame:
    """A weighted game with weights in 0..9 (halves, thirds and quarters
    too when rational) and any positive quota up to the total weight."""
    n = draw(st.integers(1, max_n)) if n is None else n
    values = st.fractions(0, 9, max_denominator=4) if rational else st.integers(0, 9)
    weights = draw(st.lists(values, min_size=n, max_size=n).filter(any))
    total = sum(weights)
    quota = draw(st.fractions(0, total, max_denominator=12).filter(lambda q: q > 0))
    return WeightedGame(quota, weights)


@st.composite
def two_leaf_combos(draw, max_n: int = 10, rational: bool = False) -> BoolCombo:
    """An and or an or of two weighted games on the same voters."""
    n = draw(st.integers(1, max_n))
    op = draw(st.sampled_from(("and", "or")))
    return BoolCombo(op, [draw(weighted_games(n=n, rational=rational)) for _ in range(2)])


@st.composite
def multi_axis_combos(draw, max_n: int = 10) -> BoolCombo:
    """An and/or tree over two weighted leaves with distinct non-uniform
    weights, the first with a zero weight, and at times a third leaf:
    one with the first's weights and its own quota, or a uniform one."""
    n = draw(st.integers(2, max_n))
    weights = st.lists(st.integers(0, 9), min_size=n, max_size=n)
    first = draw(weights)
    first[draw(st.integers(0, n - 1))] = 0
    assume(len(set(first)) > 1)
    second = draw(weights.filter(lambda w: len(set(w)) > 1 and w != first))
    rows = [first, second]
    third = draw(st.sampled_from(("none", "shared", "uniform")))
    if third != "none":
        rows.append(first if third == "shared" else [1] * n)
    leaves = [WeightedGame(draw(st.integers(1, sum(w))), w) for w in rows]
    op, other = draw(st.sampled_from((("and", "or"), ("or", "and"))))
    if len(leaves) == 3 and draw(st.booleans()):
        return BoolCombo(op, [leaves[0], BoolCombo(other, leaves[1:])])
    return BoolCombo(op, leaves)


@st.composite
def monotone_games(draw, max_n: int = 8, n: int | None = None) -> ExplicitGame:
    """The up-closure of a random nonempty set of nonempty coalitions:
    a monotone simple game, complete or not."""
    n = draw(st.integers(1, max_n)) if n is None else n
    gens = np.array(draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=8)))
    masks = np.arange(1 << n)[:, None]
    table = ((masks & gens) == gens).any(axis=1)
    return ExplicitGame(n, table.astype(np.uint8).tobytes())


def feasible_by_fourier_motzkin(num_vars: int, rows) -> bool:
    """Whether some x >= 0 has A x >= b, by eliminating one variable at a
    time.

    rows is a list of (coefficients, b) meaning sum c_j x_j >= b.  A pair
    of rows whose coefficients on the eliminated variable have opposite
    signs combines, with positive multipliers, into one row without it;
    the system is feasible iff no row ends as 0 >= b with b > 0.
    """
    system = {(tuple(Fraction(c) for c in coeffs), Fraction(b)) for coeffs, b in rows}
    system |= {(tuple(Fraction(int(j == k)) for j in range(num_vars)), Fraction(0)) for k in range(num_vars)}
    for k in range(num_vars):
        pos = [r for r in system if r[0][k] > 0]
        neg = [r for r in system if r[0][k] < 0]
        kept = {r for r in system if r[0][k] == 0}
        for cp, bp in pos:
            for cn, bn in neg:
                sp, sn = -cn[k], cp[k]
                coeffs = tuple(sp * a + sn * c for a, c in zip(cp, cn))
                kept.add((coeffs, sp * bp + sn * bn))
        # Scale each row so its largest coefficient is 1; duplicates merge.
        system = set()
        for coeffs, b in kept:
            top = max((abs(c) for c in coeffs), default=0)
            system.add((coeffs, b) if top == 0 else (tuple(c / top for c in coeffs), b / top))
    return all(b <= 0 for _, b in system)


def simplex_one_system(num_vars: int, rows) -> list[Fraction] | None:
    """Phase-one simplex on one full integer tableau, the reference for
    exactlp's block solver: the same Bland rule and fraction-free pivots,
    with every column stored (artificials included) and plain Python
    loops, so it must reach the same vertex."""
    m = len(rows)
    art_rows = [i for i, (_, b) in enumerate(rows) if b > 0]
    width = num_vars + m + len(art_rows) + 1
    rhs = width - 1
    tab, basis = [], []
    for i, (coeffs, b) in enumerate(rows):
        row = [0] * width
        if b > 0:
            row[:num_vars] = list(coeffs)
            row[num_vars + i] = -1
            art = num_vars + m + art_rows.index(i)
            row[art], row[rhs] = 1, b
            basis.append(art)
        else:
            row[:num_vars] = [-c for c in coeffs]
            row[num_vars + i] = 1
            basis.append(num_vars + i)
        tab.append(row)
    tab.append([sum(tab[i][j] for i in art_rows) for j in range(width)])
    delta = 1
    while tab[m][rhs] != 0:
        entering = [j for j in range(num_vars + m) if tab[m][j] > 0 and j not in basis]
        if not entering:
            return None
        col = entering[0]
        row = -1
        for i in range(m):
            t = tab[i][col]
            if t <= 0:
                continue
            if row < 0:
                row = i
                continue
            lhs, rhs_v = tab[i][rhs] * tab[row][col], tab[row][rhs] * t
            if lhs < rhs_v or (lhs == rhs_v and basis[i] < basis[row]):
                row = i
        pivot, prow = tab[row][col], tab[row]
        for i in range(m + 1):
            if i != row:
                f = tab[i][col]
                tab[i] = [(tab[i][j] * pivot - f * prow[j]) // delta for j in range(width)]
        delta = pivot
        basis[row] = col
    x = [Fraction(0)] * num_vars
    for i, b in enumerate(basis):
        if b < num_vars:
            x[b] = Fraction(tab[i][rhs], delta)
    return x


def prefix_counts(n: int, mask: int) -> tuple[int, ...]:
    """How many of the strongest 1, 2, ..., n voters the coalition holds."""
    out, held = [], 0
    for i in range(n):
        held += (mask >> i) & 1
        out.append(held)
    return tuple(out)


def dominates_by_loop(a: int, b: int, n: int) -> bool:
    """Whether coalition a is at least as strong as b in the shift order,
    one voter at a time: a must hold at least as many of the strongest j
    voters as b, for every j."""
    ca = cb = 0
    for j in range(n):
        bit = 1 << j
        if a & bit:
            ca += 1
        if b & bit:
            cb += 1
        if ca < cb:
            return False
    return True


def shift_weakenings(n: int, mask: int) -> list[int]:
    """The coalitions one step below mask in the shift order: mask less a
    member, or mask with a member traded for the next weaker voter when
    that voter is out.  Every coalition strictly below mask lies below
    one of these."""
    out = []
    for i in range(n):
        if mask >> i & 1:
            out.append(mask & ~(1 << i))
            if i + 1 < n and not mask >> (i + 1) & 1:
                out.append(mask & ~(1 << i) | 1 << (i + 1))
    return out


def not_shift_minimal_by_loop(n: int, masks) -> list[int]:
    """The listed coalitions, ascending, that a one-step weakening of
    theirs dominates some listed coalition for: those that cannot be
    shift-minimal winning in the game the list induces."""
    return [
        m
        for m in sorted(set(masks))
        if any(dominates_by_loop(f, s, n) for f in shift_weakenings(n, m) for s in masks)
    ]


@lru_cache(maxsize=None)
def lower_neighbors(n: int) -> tuple[tuple[int, ...], ...]:
    """shift_weakenings of every mask, by mask."""
    return tuple(tuple(shift_weakenings(n, m)) for m in range(1 << n))


@lru_cache(maxsize=None)
def upper_neighbors(n: int) -> tuple[tuple[int, ...], ...]:
    """The one-step strengthenings of every mask: the coalitions whose
    shift_weakenings include it."""
    uppers: list[list[int]] = [[] for _ in range(1 << n)]
    for m, lowers in enumerate(lower_neighbors(n)):
        for f in lowers:
            uppers[f].append(m)
    return tuple(map(tuple, uppers))


def linear_extension_by_keys(n: int) -> list[int]:
    """Every mask sorted by (size, descending index sum), ties by mask,
    one coalition at a time."""
    return sorted(range(1 << n), key=lambda m: (m.bit_count(), -sum(i + 1 for i in range(n) if m >> i & 1)))


def families_by_neighbors(tables, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(win, lose) boolean matrices of the rows of a (games, 2**n) 0/1
    table, coalition by coalition: the winning coalitions whose one-step
    weakenings all lose, and the losing ones whose one-step
    strengthenings all win."""
    t = np.asarray(tables, dtype=bool).T  # coalition-major
    win, lose = t.copy(), ~t
    for m, (lowers, uppers) in enumerate(zip(lower_neighbors(n), upper_neighbors(n))):
        win[m] &= ~t[list(lowers)].any(axis=0)
        lose[m] &= t[list(uppers)].all(axis=0)
    return win.T, lose.T


@st.composite
def complete_families(draw, max_n: int = 16) -> tuple[int, list[int], list[int]]:
    """(n, raw, family): a random list of nonempty coalitions on n voters,
    and its shift-minimal members by dominates_by_loop, which are exactly
    the shift-minimal winning coalitions of the complete game that raw
    induces."""
    n = draw(st.integers(1, max_n))
    raw = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=6))
    family = sorted(m for m in set(raw) if not any(s != m and dominates_by_loop(m, s, n) for s in raw))
    return n, raw, family


def _integerize(values) -> list[int]:
    """Fractions scaled by the lcm of their denominators."""
    den = math.lcm(*(v.denominator for v in values))
    return [int(v * den) for v in values]


def _weight_sum(weights, mask: int) -> int:
    return sum(w for b, w in enumerate(weights) if (mask >> b) & 1)


def sorted_complete_representation(
    n: int, shift_min_win, shift_max_lose
) -> tuple[int, tuple[int, ...]] | None:
    """Integer (quota, weights) for a sorted complete game, or None, from
    one exact LP over its shift-minimal winning and shift-maximal losing
    coalitions.

    Works in weight-difference space so the sortedness of the weights is a
    sign condition; the weights are the suffix sums of the differences.
    """
    rows = [([*prefix_counts(n, s), -1], 0) for s in shift_min_win]
    rows += [([-c for c in prefix_counts(n, t)] + [1], 1) for t in shift_max_lose]
    sol = simplex_one_system(n + 1, rows)
    if sol is None:
        return None
    diffs = _integerize(sol)[:n]
    weights = [sum(diffs[i:]) for i in range(n)]
    quota = min(_weight_sum(weights, s) for s in shift_min_win)
    g_all = math.gcd(quota, *weights)
    return quota // g_all, tuple(w // g_all for w in weights)


def weighted_by_inclusion_lp(g) -> WeightedGame | None:
    """A weighted representation of any game, or None, from one exact LP
    over voter weights and a quota: every inclusion-minimal winning
    coalition at or above the quota, every inclusion-maximal losing one at
    least one unit below.  Needs no completeness or voter order."""
    table = to_explicit(g).table
    n = g.n
    voters = [1 << b for b in range(n)]
    win = [m for m in range(1 << n) if table[m] and not any(m & v and table[m & ~v] for v in voters)]
    lose = [m for m in range(1 << n) if not table[m] and all(m & v or table[m | v] for v in voters)]
    rows = [([(s >> b) & 1 for b in range(n)] + [-1], 0) for s in win]
    rows += [([-((t >> b) & 1) for b in range(n)] + [1], 1) for t in lose]
    sol = simplex_one_system(n + 1, rows)
    if sol is None:
        return None
    weights = _integerize(sol)[:n]
    quota = min(_weight_sum(weights, s) for s in win)
    g_all = math.gcd(quota, *weights)
    return WeightedGame(quota // g_all, [w // g_all for w in weights])


def two_trade_by_pairs(n: int, win, lose) -> bool:
    """Whether some two winning coalitions (repeats allowed) have prefix
    counts summing, componentwise, to at most those of some two losing
    ones, by walking every pair of pairs."""
    def sums(family):
        ps = [prefix_counts(n, m) for m in family]
        return [tuple(map(sum, zip(a, b))) for i, a in enumerate(ps) for b in ps[i:]]

    highs = sums(lose)
    return any(all(x <= y for x, y in zip(low, high)) for low in sums(win) for high in highs)


def difference_systems_by_matrix(n: int, win, lose) -> tuple[np.ndarray, np.ndarray]:
    """exactlp.solve_block's (coeffs, rhs) for the games of (games, 2**n)
    family matrices, one row at a time: per game its shift-minimal winning
    coalitions as (prefix counts, -1) >= 0, then its shift-maximal losing
    ones as (-prefix counts, 1) >= 1, masks ascending, zero rows after."""
    rows = int((win.sum(axis=1) + lose.sum(axis=1)).max(initial=0))
    coeffs = np.zeros((len(win), rows, n + 1), dtype=np.int8)
    rhs = np.zeros((len(win), rows), dtype=np.int8)
    for g in range(len(win)):
        listed = [(m, 1) for m in np.flatnonzero(win[g])] + [(m, -1) for m in np.flatnonzero(lose[g])]
        for r, (m, sign) in enumerate(listed):
            coeffs[g, r] = [sign * c for c in prefix_counts(n, int(m))] + [-sign]
            rhs[g, r] = sign < 0
    return coeffs, rhs


def catalog_records_by_matrix(n: int, families) -> bytes:
    """The VKCAT1 records of the rows of a (games, 2**n) boolean matrix of
    shift-minimal winning families, one struct record per game: a u16
    count, then each mask as a u32."""
    assert families.shape[1] == 1 << n
    out = b""
    for row in families:
        masks = [int(m) for m in np.flatnonzero(row)]
        out += struct.pack(f"<H{len(masks)}I", len(masks), *masks)
    return out


def labelings_by_dfs(order, lowers):
    """Every monotone labelling of a lattice with order[0] -> 0 and
    order[-1] -> 1, as bytes indexed by coalition mask, depth first along
    the linear extension order: a coalition is forced to 1 when one of
    its lower neighbours is, and otherwise tried as 0, then as 1."""
    size = len(order)
    val = bytearray(size)
    stack: list[int] = []
    t = 0
    while True:
        while t < size:
            m = order[t]
            if any(val[f] for f in lowers[m]) or t == size - 1:
                val[m] = 1
            else:
                val[m] = 0  # covers the empty coalition, never branched
                if t > 0:
                    stack.append(t)
            t += 1
        yield bytes(val)
        if not stack:
            return
        t = stack.pop()
        val[order[t]] = 1
        t += 1


def heuristic_by_moves(target, metric, *, weight_total: int = 100, budget: int = 800, seed: int = 0):
    """The heuristic inverse search with one quota scan per candidate:
    every single-voter move of the incumbent is scanned on its own, in
    order, until the budget runs out."""
    n = target.n
    scan = _QuotaScan(target, metric)
    rng = random.Random(seed)
    memo = {}
    evals = 0
    best = None  # (distance, weights, quota, vector)

    def evaluate(w):
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

    start = _proportional_start(target, weight_total)
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
            stalls += 1
            if stalls >= 20:
                break
        else:
            stalls = 0
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

    dist, wkey, quota, vec = best
    return InverseResult(
        mode=InverseMode.HEURISTIC_UPPER_BOUND,
        target=target,
        metric=metric,
        game=WeightedGame(quota, [Fraction(x) for x in wkey]),
        vector=vec,
        distance=dist,
        evaluations=evals,
        seed=seed,
    )
