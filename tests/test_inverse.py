"""Inverse problem: exact minimization and the heuristic upper bound."""

from fractions import Fraction

import pytest

from votekit.games import add_null_voters, game_to_text, parse_game
from votekit.geometry import Metric, distance
from votekit.indices import ssi, ssi_dp
from votekit.inverse import (
    InverseMode,
    Target,
    beta_target,
    inverse_exact,
    inverse_heuristic,
    padded_target_search,
    parse_target_file,
)

from oracles import linear_nearest, store_rows


def test_target_validation():
    t = Target("ssi", (Fraction(1, 2), Fraction(1, 2)))
    assert t.n == 2
    with pytest.raises(ValueError):
        Target("ssi", (Fraction(1, 2), Fraction(1, 3)))  # sums below 1
    with pytest.raises(ValueError):
        Target("ssi", (Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(ValueError):
        Target("banzhaf", (Fraction(1),))


def test_target_common_ints():
    nums, den = Target("ssi", (Fraction(7, 12), Fraction(1, 4), Fraction(1, 6))).common_ints()
    assert nums == [7, 3, 2] and den == 12


def test_parse_target_file():
    t = parse_target_file("# padded\nn=4 index=ssi\n7/12 1/4\n1/12 1/12\n")
    assert t.kind == "ssi" and t.n == 4
    assert t.values[0] == Fraction(7, 12)


def test_parse_target_file_normalize():
    text = "n=3 index=pbi\n0.333 0.333 0.333\n"
    with pytest.raises(ValueError):
        parse_target_file(text)
    t = parse_target_file(text, normalize=True)
    assert sum(t.values) == 1 and t.values[0] == Fraction(1, 3)


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
    assert t.values == (Fraction(2, 9),) * 4 + (Fraction(1, 9),)
    with pytest.raises(ValueError):
        beta_target(0, "ssi")


def test_inverse_exact_hits_stored_vector(stores):
    store, certs = stores(4, "ssi")
    target = Target.from_vector(ssi(parse_game("[3;3,2,1,1]")))
    res = inverse_exact(target, Metric.L1, store, certs)
    assert res.mode is InverseMode.EXACT_MIN
    assert res.distance == 0
    assert ssi_dp(res.game).fractions() == target.values


@pytest.mark.parametrize("metric", [Metric.L1, Metric.LINF])
def test_inverse_exact_matches_linear_scan(stores, metric):
    store, certs = stores(4, "ssi")
    rows = store_rows(store)
    target = Target("ssi", (Fraction(1, 2), Fraction(1, 5), Fraction(1, 5), Fraction(1, 10)))
    res = inverse_exact(target, metric, store, certs)
    qnums, qden = target.common_ints()
    dist, hits = linear_nearest(rows, qnums, qden, metric is Metric.L1)
    assert res.distance == dist
    assert distance(res.vector.fractions(), target.values, metric) == dist
    # relabelling the voters relabels the answer, at the same distance
    shuffled = Target("ssi", tuple(target.values[i] for i in (3, 1, 0, 2)))
    moved = inverse_exact(shuffled, metric, store, certs)
    assert moved.distance == dist
    assert moved.vector.fractions() == tuple(res.vector.fractions()[i] for i in (3, 1, 0, 2))
    assert ssi_dp(moved.game) == moved.vector


def test_inverse_exact_relabels_voters(stores):
    """The best game for a target whose strongest voter is not listed
    first: searched sorted, answered in the target's own voter order."""
    store, certs = stores(7, "ssi")
    values = (Fraction(1, 10), Fraction(3, 10), Fraction(1, 5)) + (Fraction(1, 10),) * 4
    target = Target("ssi", values)
    res = inverse_exact(target, Metric.L1, store, certs)
    assert res.distance == Fraction(1, 15)
    assert game_to_text(res.game) == "[10;2,5,3,2,2,2,2]"
    assert ssi_dp(res.game) == res.vector
    assert distance(res.vector.fractions(), values, Metric.L1) == res.distance


def test_inverse_heuristic_reaches_achievable_target():
    target = Target.from_vector(ssi(parse_game("[3;3,2,1,1]")))
    res = inverse_heuristic(target, Metric.L1, budget=200, seed=0)
    assert res.mode is InverseMode.HEURISTIC_UPPER_BOUND
    assert res.distance == 0
    assert ssi_dp(res.game).fractions() == target.values


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
        inverse_heuristic(Target("ssi", (Fraction(1, n),) * n), Metric.L1)
    with pytest.raises(ValueError):
        inverse_heuristic(beta_target(4, "ssi"), Metric.L1, weight_total=0)


def test_inverse_result_distance_is_honest():
    target = beta_target(5, "pbi")
    res = inverse_heuristic(target, Metric.LINF, budget=100, seed=1)
    got = distance(res.vector.fractions(), target.values, Metric.LINF)
    assert got == res.distance


def test_padded_search_exact_against_catalog(stores):
    base = parse_game("[3;2,1,1]")
    store, certs = stores(5, "ssi")
    rep = padded_target_search([base], 5, Metric.L1, "ssi", store=store, certificates=certs)
    assert rep.mode is InverseMode.EXACT_MIN
    # A weighted base stays weighted after padding, so the gap is zero.
    assert rep.bound == 0
    padded = add_null_voters(base, 2)
    assert ssi_dp(rep.results[0].game) == ssi(padded)


def test_padded_search_heuristic_mode():
    base = parse_game("[3;2,1,1]")
    rep = padded_target_search([base], 5, Metric.L1, "ssi", budget=120, seed=0)
    assert rep.mode is InverseMode.HEURISTIC_UPPER_BOUND
    assert rep.bound == max(r.distance for r in rep.results)
    with pytest.raises(ValueError):
        padded_target_search([], 5, Metric.L1, "ssi")
    with pytest.raises(ValueError):
        padded_target_search([base], 2, Metric.L1, "ssi")
