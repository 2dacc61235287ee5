"""Inverse problem: exact minimization and the heuristic upper bound."""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from votekit.council import council_game
from votekit.games import WeightedGame, add_null_voters, game_to_text, parse_game
from votekit.geometry import Metric, distance
from votekit.indices import PowerVector, pbi_dp, power_vector, ssi, ssi_dp
from votekit.inverse import (
    InverseMode,
    _QuotaScan,
    beta_target,
    inverse_exact,
    inverse_heuristic,
    padded_target_search,
    parse_target_file,
)

from oracles import heuristic_by_moves, linear_nearest, store_rows


def _target(kind, values):
    """A target from exact fractions that sum to 1."""
    den = math.lcm(*(Fraction(v).denominator for v in values))
    return PowerVector(kind, [Fraction(v) * den for v in values], den)


def test_target_validation():
    t = parse_target_file("n=2 index=ssi\n1/2 1/2\n")
    assert isinstance(t, PowerVector) and t.n == 2
    with pytest.raises(ValueError, match="sum to exactly 1; renormalize"):
        parse_target_file("n=2 index=ssi\n1/2 1/3\n")  # sums below 1
    with pytest.raises(ValueError):
        parse_target_file("n=2 index=ssi\n3/2 -1/2\n")
    with pytest.raises(ValueError):
        parse_target_file("n=1 index=banzhaf\n1\n")


def test_target_common_ints():
    assert parse_target_file("n=3 index=ssi\n7/12 1/4 1/6\n").key() == (7, 3, 2, 12)
    # the same integers from numerators over any common multiple
    assert _target("ssi", (Fraction(7, 12), Fraction(1, 4), Fraction(1, 6))).key() == (7, 3, 2, 12)
    assert PowerVector("ssi", (14, 6, 4), 24).key() == (7, 3, 2, 12)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.fractions(min_value=0, max_value=10, max_denominator=10**6), min_size=1, max_size=12),
    st.sampled_from(["ssi", "pbi"]),
)
def test_parsed_target_keys_are_the_common_integers(parts, kind):
    """Random rationals summing to 1 parse to a PowerVector whose key()
    is the numerators over the lcm of their denominators, then that lcm."""
    assume(sum(parts) > 0)
    values = [v / sum(parts) for v in parts]
    t = parse_target_file(f"n={len(values)} index={kind}\n" + " ".join(map(str, values)))
    den = math.lcm(*(v.denominator for v in values))
    assert t.kind == kind and t.fractions() == tuple(values)
    assert t.key() == tuple(int(v * den) for v in values) + (den,)


def test_parse_target_file():
    t = parse_target_file("# padded\nn=4 index=ssi\n7/12 1/4\n1/12 1/12\n")
    assert t.kind == "ssi" and t.n == 4
    assert t[0] == Fraction(7, 12)


def test_parse_target_file_normalize():
    text = "n=3 index=pbi\n0.333 0.333 0.333\n"
    with pytest.raises(ValueError):
        parse_target_file(text)
    t = parse_target_file(text, normalize=True)
    assert sum(t.fractions()) == 1 and t[0] == Fraction(1, 3)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty"),
        ("n=4\n1 0 0 0\n", "header"),
        ("n=two index=ssi\n1 1\n", "voter count"),
        ("n=3 index=ssi\n1/2 1/2\n", "expected 3 values"),
        ("n=1 index=ssi\n0\n", "normalize: values sum to zero"),
    ],
)
def test_parse_target_file_errors(text, message):
    with pytest.raises(ValueError, match=message):
        parse_target_file(text, normalize=True)


def test_beta_target_shape():
    t = beta_target(5, "ssi")
    assert t.fractions() == (Fraction(2, 9),) * 4 + (Fraction(1, 9),)
    with pytest.raises(ValueError):
        beta_target(0, "ssi")


def test_inverse_exact_hits_stored_vector(cache_dir):
    target = ssi(parse_game("[3;3,2,1,1]"))
    res = inverse_exact(target, Metric.L1, cache_dir)
    assert res.mode is InverseMode.EXACT_MIN
    assert res.distance == 0
    assert ssi_dp(res.game).fractions() == target.fractions()


@pytest.mark.parametrize("metric", [Metric.L1, Metric.LINF])
def test_inverse_exact_matches_linear_scan(cache_dir, stores, metric):
    rows = store_rows(stores(4, "ssi"))
    target = _target("ssi", (Fraction(1, 2), Fraction(1, 5), Fraction(1, 5), Fraction(1, 10)))
    res = inverse_exact(target, metric, cache_dir)
    *qnums, qden = target.key()
    dist, hits = linear_nearest(rows, qnums, qden, metric is Metric.L1)
    assert res.distance == dist
    assert distance(res.vector, target, metric) == dist
    # relabelling the voters relabels the answer, at the same distance
    shuffled = _target("ssi", tuple(target[i] for i in (3, 1, 0, 2)))
    moved = inverse_exact(shuffled, metric, cache_dir)
    assert moved.distance == dist
    assert moved.vector.fractions() == tuple(res.vector.fractions()[i] for i in (3, 1, 0, 2))
    assert ssi_dp(moved.game) == moved.vector


def test_inverse_exact_relabels_voters(cache_dir):
    """The best game for a target whose strongest voter is not listed
    first: searched sorted, answered in the target's own voter order."""
    values = (Fraction(1, 10), Fraction(3, 10), Fraction(1, 5)) + (Fraction(1, 10),) * 4
    target = _target("ssi", values)
    res = inverse_exact(target, Metric.L1, cache_dir)
    assert res.distance == Fraction(1, 15)
    assert game_to_text(res.game) == "[10;2,5,3,2,2,2,2]"
    assert ssi_dp(res.game) == res.vector
    assert distance(res.vector.fractions(), values, Metric.L1) == res.distance


def test_inverse_heuristic_reaches_achievable_target():
    target = ssi(parse_game("[3;3,2,1,1]"))
    res = inverse_heuristic(target, Metric.L1, budget=200, seed=0)
    assert res.mode is InverseMode.HEURISTIC_UPPER_BOUND
    assert res.distance == 0
    assert ssi_dp(res.game).fractions() == target.fractions()


def test_inverse_heuristic_is_deterministic_and_monotone():
    target = beta_target(6, "ssi")
    a = inverse_heuristic(target, Metric.L1, budget=150, seed=3)
    b = inverse_heuristic(target, Metric.L1, budget=150, seed=3)
    assert (a.game, a.distance, a.evaluations) == (b.game, b.distance, b.evaluations)
    assert a.evaluations <= 150
    c = inverse_heuristic(target, Metric.L1, budget=400, seed=3)
    assert c.distance <= a.distance


def test_inverse_heuristic_rejects_oversized_targets():
    n = 65
    with pytest.raises(ValueError):
        inverse_heuristic(_target("ssi", (Fraction(1, n),) * n), Metric.L1)
    with pytest.raises(ValueError):
        inverse_heuristic(beta_target(4, "ssi"), Metric.L1, weight_total=0)


def test_inverse_result_distance_is_honest():
    target = beta_target(5, "pbi")
    res = inverse_heuristic(target, Metric.LINF, budget=100, seed=1)
    got = distance(res.vector, target, Metric.LINF)
    assert got == res.distance


def test_padded_search_exact_against_catalog(cache_dir):
    base = parse_game("[3;2,1,1]")
    padded = add_null_voters(base, 2)
    res = inverse_exact(power_vector(padded, "ssi"), Metric.L1, cache_dir)
    assert res.mode is InverseMode.EXACT_MIN
    # A weighted base stays weighted after padding, so the gap is zero.
    assert res.distance == 0
    assert ssi_dp(res.game) == ssi(padded)


def test_padded_search_heuristic_mode():
    base = parse_game("[3;2,1,1]")
    rep = padded_target_search([base], 5, Metric.L1, "ssi", budget=120, seed=0)
    assert all(r.mode is InverseMode.HEURISTIC_UPPER_BOUND for r in rep.results)
    assert rep.bound == max(r.distance for r in rep.results)
    with pytest.raises(ValueError):
        padded_target_search([], 5, Metric.L1, "ssi")
    with pytest.raises(ValueError):
        padded_target_search([base], 2, Metric.L1, "ssi")


# Rounded member-state populations in thousands: 27 members, as in the
# council rule's own setting.
COUNCIL_27 = [
    83166, 67320, 59641, 47332, 37958, 19328, 17408, 11522, 10718, 10694, 10327, 10295,
    9770, 8901, 6951, 5823, 5525, 5458, 4964, 4058, 2795, 2096, 1908, 1329, 888, 626, 515,
]
# one of the two games at the n = 7 Shapley-Shubik L1 gap
PADDED_BASE = "n=7; shiftminwin={1,3,4,7},{1,2,6,7}"


def _named_target(shape, kind):
    if shape == "beta9":
        return beta_target(9, kind)
    if shape == "padded11":
        padded = add_null_voters(parse_game(PADDED_BASE), 4)
        return power_vector(padded, kind)
    exact = ssi_dp if kind == "ssi" else pbi_dp
    return exact(council_game(COUNCIL_27, 1000))


def _pinned_target(name):
    return _named_target(*name.split("-"))


# sha256 of "game|distance|evaluations", recorded from the per-voter
# quota scan that the grouped kernel replaced.
@pytest.mark.parametrize(
    "name, metric, budget, seed, digest",
    [
        pytest.param(
            "beta9-ssi", Metric.L1, 300, 0,
            "dbaca75dcb3a00b595d64330d0c75d8e3acc5a9da46ab687b0107f4ec9218b80",
            id="beta9-ssi-l1",
        ),
        pytest.param(
            "beta9-ssi", Metric.LINF, 300, 1,
            "f7761a1f22e1c24842f800f50d249a65a65d992125347e3acfaee3ca625d7208",
            id="beta9-ssi-linf",
        ),
        pytest.param(
            "beta9-pbi", Metric.L1, 300, 2,
            "0647f8c92613044560a74109414c93f400ec1b290a316d00765c3230402768d7",
            id="beta9-pbi-l1",
        ),
        pytest.param(
            "beta9-pbi", Metric.LINF, 300, 3,
            "27f75619591e938e50b6b6a6a0bab65cff9832e06221fcfa5a3ea28a1e511738",
            id="beta9-pbi-linf",
        ),
        pytest.param(
            "padded11-ssi", Metric.L1, 300, 5,
            "25b20387b6827edf4606257b319b2cbd85394c0dc76b765c46c99a8609d84550",
            id="padded11-ssi-l1",
        ),
        pytest.param(
            "council27-ssi", Metric.L1, 60, 6,
            "20c43434c2c8c6ce9053f5a35b471c15e4d3706818fd7a11678153d4e790d9eb",
            id="council27-ssi-l1",
        ),
    ],
)
def test_search_trajectory_is_pinned(name, metric, budget, seed, digest):
    res = inverse_heuristic(_pinned_target(name), metric, budget=budget, seed=seed)
    text = f"{game_to_text(res.game)}|{res.distance}|{res.evaluations}"
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text


def _scan_by_brute_force(target, metric, weights):
    """Every quota's game, its index and its distance, one at a time;
    the smallest distance wins, and the smallest quota among equals."""
    best = None
    for quota in range(1, sum(weights) + 1):
        vec = power_vector(WeightedGame(quota, weights), target.kind)
        d = distance(vec, target, metric)
        if best is None or d < best[0]:
            best = (d, quota, vec)
    return best


@st.composite
def _scan_cases(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    # few distinct values, so that zeros and repeated weights are common
    palette = draw(st.lists(st.integers(0, 12), min_size=1, max_size=3))
    weights = draw(st.lists(st.sampled_from(palette + [0]), min_size=n, max_size=n))
    den = draw(st.sampled_from([1, 7, 60, 2**70 + 1]))
    cuts = sorted(draw(st.lists(st.integers(0, den), min_size=n - 1, max_size=n - 1)))
    values = [Fraction(b - a, den) for a, b in zip([0] + cuts, cuts + [den])]
    kind = draw(st.sampled_from(["ssi", "pbi"]))
    metric = draw(st.sampled_from([Metric.L1, Metric.LINF]))
    return _target(kind, values), metric, weights


@settings(max_examples=150, deadline=None)
@given(_scan_cases())
def test_quota_scan_matches_brute_force(case):
    target, metric, weights = case
    got = _QuotaScan(target, metric).run(weights)
    if sum(weights) == 0:
        assert got is None
        return
    want = _scan_by_brute_force(target, metric, weights)
    assert got[:2] == want[:2]
    assert (got[2].kind, got[2].nums, got[2].den) == (want[2].kind, want[2].nums, want[2].den)


def _assert_neighbours_match_scans(scan, weights, moves):
    """Every scored move equals the quota scan of the moved weights."""
    for (i, step), (dist, quota, column) in zip(moves, scan.neighbours(weights, moves)):
        moved = list(weights)
        moved[i] += step
        want = scan.run(moved)
        assert (dist, quota) == want[:2], (i, step)
        got = scan.vector(column)
        assert (got.kind, got.nums, got.den) == (want[2].kind, want[2].nums, want[2].den)


def _all_moves(weights):
    moves = [(i, 1) for i in range(len(weights))]
    if sum(weights) > 1:
        moves += [(i, -1) for i, w in enumerate(weights) if w >= 1]
    return moves


@settings(max_examples=150, deadline=None)
@given(_scan_cases(max_n=9), st.data())
def test_neighbourhood_matches_quota_scans(case, data):
    target, metric, weights = case
    assume(sum(weights) > 0)
    moves = _all_moves(weights)
    # the search scores only the moves it has not seen, in order
    keep = data.draw(st.lists(st.booleans(), min_size=len(moves), max_size=len(moves)))
    moves = [mv for mv, k in zip(moves, keep) if k] or moves
    _assert_neighbours_match_scans(_QuotaScan(target, metric), weights, moves)


def _prime_target(n, kind):
    """Uneven entries over the prime denominator 2**61 - 1: the distances'
    common denominator leaves int64."""
    den = 2**61 - 1
    values = [Fraction(den // (n + i), den) for i in range(n - 1)]
    return _target(kind, values + [1 - sum(values)])


# n = 21 is the first count whose n! leaves int64, n = 43 the first whose
# Shapley-Shubik numerators leave it in units of the size weights' gcd.
@pytest.mark.parametrize("n", [20, 21, 27, 43])
@pytest.mark.parametrize("kind", ["ssi", "pbi"])
@pytest.mark.parametrize("shape", ["beta", "prime"])
def test_wide_heuristic_results_are_exact(n, kind, shape):
    target = beta_target(n, kind) if shape == "beta" else _prime_target(n, kind)
    res = inverse_heuristic(target, Metric.L1, budget=12, seed=n)
    exact = ssi_dp if kind == "ssi" else pbi_dp
    assert res.vector == exact(res.game)
    assert res.distance == distance(res.vector, target, Metric.L1)


# Zero weights, repeated weights and one lone weight.  n = 21 is the
# first count whose n! leaves int64, n = 43 the first whose Shapley-Shubik
# contractions leave it; the prime target's distances leave it at every n.
# Weights (1, 1, 0, ...) at n = 64: after the second voter's move to 0
# the first swings in all 2**63 coalitions of the others.
@pytest.mark.parametrize(
    "weights",
    [[9] + [(7 * i) % 5 for i in range(1, n)] for n in (21, 27, 43, 64)] + [[1, 1] + [0] * 62],
    ids=["n21", "n27", "n43", "n64", "n64-lone-swinger"],
)
@pytest.mark.parametrize("kind", ["ssi", "pbi"])
def test_wide_neighbourhoods_are_exact(weights, kind):
    n = len(weights)
    moves = _all_moves(weights)
    _assert_neighbours_match_scans(_QuotaScan(beta_target(n, kind), Metric.L1), weights, moves)
    _assert_neighbours_match_scans(_QuotaScan(_prime_target(n, kind), Metric.LINF), weights, moves)


@pytest.mark.parametrize("shape", ["beta9", "padded11", "council27"])
@pytest.mark.parametrize("kind", ["ssi", "pbi"])
@pytest.mark.parametrize("metric", [Metric.L1, Metric.LINF])
@pytest.mark.parametrize("budget", [57, 150])
def test_search_matches_one_scan_per_move(shape, kind, metric, budget):
    """The same evaluations, cut at the same budget (57 and 150 end all
    but one of these searches inside a neighbourhood), give the same
    answer as scanning move by move."""
    target = _named_target(shape, kind)
    seed = budget + len(shape)
    got = inverse_heuristic(target, metric, budget=budget, seed=seed)
    want = heuristic_by_moves(target, metric, budget=budget, seed=seed)
    assert got == want
    assert (got.vector.nums, got.vector.den) == (want.vector.nums, want.vector.den)


@pytest.mark.parametrize("kind", ["ssi", "pbi"])
def test_sixty_four_voters_do_not_wrap(kind):
    """One voter of weight 1 and 63 null voters: the lone voter swings in
    2**63 coalitions, one more than int64 holds."""
    target = _target(kind, (Fraction(1),) + (Fraction(0),) * 63)
    res = inverse_heuristic(target, Metric.L1, budget=20, seed=0)
    exact = ssi_dp if kind == "ssi" else pbi_dp
    assert res.vector == exact(res.game)
    assert res.distance == 0
