"""Power index computation: direct enumeration, DP, and batch paths."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votekit.council import council_game
from votekit.games import BoolCombo, WeightedGame, parse_game, to_explicit
from votekit.indices import (
    KINDS,
    PowerVector,
    _batch_coefficients,
    _byte_sums,
    _swing_profile_dp,
    batch_numerators,
    decimal_str,
    pbi,
    pbi_dp,
    power_vector,
    ssi,
    ssi_dp,
)

from oracles import (
    monotone_games,
    multi_axis_combos,
    pbi_swings_by_subsets,
    random_boolcombo,
    random_weighted,
    ssi_by_permutations,
    swing_profile_by_voter_dp,
    two_leaf_combos,
    weighted_games,
)


def test_worked_example_ssi():
    v = ssi(parse_game("[3;3,2,1,1]"))
    assert v.fractions() == (Fraction(7, 12), Fraction(1, 4), Fraction(1, 12), Fraction(1, 12))


def test_worked_example_pbi():
    v = pbi(parse_game("[3;3,2,1,1]"))
    assert v.fractions() == (Fraction(1, 2), Fraction(3, 10), Fraction(1, 10), Fraction(1, 10))


def test_disjoint_or_gives_equal_power():
    g = parse_game("[2;1,1,0,0] | [2;0,0,1,1]")
    assert ssi(g).fractions() == (Fraction(1, 4),) * 4
    assert ssi_dp(g).fractions() == (Fraction(1, 4),) * 4


def test_power_vector_invariants():
    v = PowerVector("ssi", (7, 3, 1, 1), 12)
    assert v.n == 4 and v[0] == Fraction(7, 12)
    assert v.key() == (7, 3, 1, 1, 12)
    assert v == PowerVector("ssi", (14, 6, 2, 2), 24)
    assert v != PowerVector("pbi", (7, 3, 1, 1), 12)
    with pytest.raises(ValueError):
        PowerVector("ssi", (1, 1), 3)  # entries must sum to the denominator
    with pytest.raises(ValueError):
        PowerVector("xyz", (1,), 1)


def test_swing_counts_normalization():
    """pbi and pbi_dp keep the raw swing counts over their total."""
    g = parse_game("[3;3,2,1,1]")
    assert pbi_swings_by_subsets(g) == ((5, 3, 1, 1), 10)
    for index in (pbi, pbi_dp):
        v = index(g)
        assert (v.nums, v.den) == ((5, 3, 1, 1), 10)
        assert v.fractions()[0] == Fraction(1, 2)


@pytest.mark.parametrize("seed", range(25))
def test_dp_matches_permutation_oracle_on_random_weighted(seed):
    rng = random.Random(seed)
    g = random_weighted(rng, rng.randint(2, 6))
    assert ssi_dp(g).fractions() == ssi_by_permutations(g)
    for index in (pbi, pbi_dp):
        v = index(g)
        assert (v.nums, v.den) == pbi_swings_by_subsets(g)


@pytest.mark.parametrize("seed", range(25))
def test_dp_matches_oracles_on_random_combos(seed):
    rng = random.Random(1000 + seed)
    g = random_boolcombo(rng, rng.randint(3, 6))
    assert ssi_dp(g).fractions() == ssi_by_permutations(g)
    for index in (pbi, pbi_dp):
        v = index(g)
        assert (v.nums, v.den) == pbi_swings_by_subsets(g)


def test_dp_handles_rational_weights():
    g = WeightedGame(Fraction(65, 100), [Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)])
    assert ssi_dp(g) == ssi(g)
    assert pbi_dp(g) == pbi(g)


def test_dp_absorbs_uniform_leaves():
    # Quota-of-members leaves share one weight, the cheap axis of the DP.
    g = BoolCombo("and", [WeightedGame(2, [1, 1, 1, 1]), WeightedGame(3, [2, 2, 1, 1])])
    assert ssi_dp(g) == ssi(g)
    assert pbi_dp(g) == pbi(g)


def test_state_cap_limits_dp():
    g = BoolCombo("and", [WeightedGame(50, [x + 40 for x in range(8)]), WeightedGame(90, [x + 30 for x in range(8)])])
    with pytest.raises(ValueError):
        ssi_dp(g, state_cap=10)
    assert ssi_dp(g, state_cap=10**7) == ssi(g)


def test_dp_leaves_with_equal_weights_share_an_axis():
    """Leaves with the same weights and different quotas share one
    weight-sum axis: 6 sizes by 51 sums."""
    g = parse_game("[30;20,10,10,5,5] & [25;20,10,10,5,5]")
    for dp, table in ((ssi_dp, ssi), (pbi_dp, pbi)):
        got, want = dp(g, state_cap=306), table(g)
        assert (got.nums, got.den) == (want.nums, want.den)
    with pytest.raises(ValueError, match="306 cells"):
        ssi_dp(g, state_cap=305)


@pytest.mark.parametrize("quantize", [1000, 10000])
@pytest.mark.parametrize("seed", range(3))
def test_dp_matches_the_per_voter_dp_on_councils(seed, quantize):
    """One forward DP and one removal per distinct flat weight give each
    voter's swing profile of a 27-member council, as one forward DP per
    voter does."""
    rng = random.Random(f"council:{seed}")
    g = council_game([int(10 ** rng.uniform(5.3, 7.9)) for _ in range(27)], quantize)
    assert _swing_profile_dp(g, 10**6) == swing_profile_by_voter_dp(g)


@settings(max_examples=80, deadline=None)
@given(multi_axis_combos())
def test_dp_matches_table_on_multi_axis_combos(g):
    """Two flat-folded axes, voters of zero weight on one of them and
    leaves that share an axis: the DP matches the per-voter DP and the
    full-table path."""
    assert _swing_profile_dp(g, 10**6) == swing_profile_by_voter_dp(g)
    for dp, table in ((ssi_dp, ssi), (pbi_dp, pbi)):
        got, want = dp(g), table(g)
        assert (got.nums, got.den) == (want.nums, want.den)


def test_power_vector_dispatch():
    g = parse_game("[3;3,2,1,1]")
    assert power_vector(g, "ssi") == ssi(g)
    assert power_vector(g, "pbi") == pbi(g)
    with pytest.raises(ValueError):
        power_vector(g, "banzhaf")


def test_batch_paths_match_scalar(catalogs):
    for n in (5, 6):
        cat = catalogs("cg", n)
        tables = np.array([to_explicit(g).np_table for g in cat])
        nums, den, swings = batch_numerators(tables)
        for i, g in enumerate(cat):
            assert tuple(int(x) for x in swings[i]) == pbi(g).nums
            expect = ssi(g).fractions()
            got = tuple(Fraction(int(x), den) for x in nums[i])
            assert got == expect


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batch_kernels_match_scalar_on_monotone_tables(data):
    """Random monotone games, complete or not, stacked in a random order
    into up to 768 rows: every batch row is the scalar answer."""
    n = data.draw(st.integers(1, 8))
    games = data.draw(st.lists(monotone_games(n=n), min_size=1, max_size=4))
    length = data.draw(st.integers(1, 768))
    picks = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).integers(len(games), size=length)
    tables = np.array([g.np_table for g in games])[picks]
    nums, den, swings = batch_numerators(tables)
    want_swings = [pbi(g).nums for g in games]
    want_ssi = [ssi(g) for g in games]
    assert den == want_ssi[0].den
    for row, i in enumerate(picks.tolist()):
        assert tuple(swings[row].tolist()) == want_swings[i]
        assert tuple(nums[row].tolist()) == want_ssi[i].nums


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_batch_kernel_is_the_coefficient_product_on_any_table(data):
    """On arbitrary 0/1 tables, monotone or not, both kinds are the int64
    product with their coefficient matrix; below 3 voters a byte holds
    fewer than 8 coalitions, and without voters there is no column."""
    n = data.draw(st.integers(0, 8))
    length = data.draw(st.integers(0, 64))
    seed = data.draw(st.integers(0, 2**32 - 1))
    density = data.draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    tables = (np.random.default_rng(seed).random((length, 1 << n)) < density).astype(np.uint8)
    nums, den, swings = batch_numerators(tables)
    assert den == math.factorial(n)
    for kind, got in zip(KINDS, (nums, swings)):
        assert got.dtype == np.int64 and got.shape == (length, n)
        assert np.array_equal(got, tables.astype(np.int64) @ _batch_coefficients(n, kind))


@pytest.mark.parametrize("n", range(9))
def test_byte_sums_fit_int32_under_the_checked_bound(n):
    """The byte table is the int64 sums cast without loss, and the bound
    that _byte_sums checks, the per-byte largest magnitudes summed over
    bytes, is below 2**31 and at most each column's absolute sum over all
    coalitions: 2 n! for Shapley-Shubik and 2**n for swings."""
    sums = _byte_sums(n)
    assert sums.dtype == np.int32 and sums.shape == (-(-(1 << n) // 8), 256, 2 * n)
    assert not sums.flags.writeable
    coef = np.hstack([_batch_coefficients(n, kind) for kind in KINDS])
    for j, byte in enumerate(sums.astype(np.int64)):
        for v in (0, 1, 0x5A, 0xFF):
            rows = [8 * j + i for i in range(8) if v >> i & 1 and 8 * j + i < 1 << n]
            assert np.array_equal(byte[v], coef[rows].sum(axis=0))
    bound = np.abs(sums.astype(np.int64)).max(axis=1).sum(axis=0)
    assert bound.max(initial=0) < 2**31
    assert (bound <= np.abs(coef).sum(axis=0)).all()
    assert (np.abs(coef).sum(axis=0) == [2 * math.factorial(n)] * n + [1 << n] * n).all()


def test_batch_kernels_refuse_more_than_eight_voters():
    tables = np.zeros((1, 1 << 9), dtype=np.uint8)
    tables[0, -1] = 1
    with pytest.raises(ValueError, match="n <= 8"):
        batch_numerators(tables)


def test_batch_kernels_refuse_a_width_that_is_no_power_of_two():
    with pytest.raises(ValueError, match="got width 12"):
        batch_numerators(np.zeros((2, 12), dtype=np.uint8))


@settings(max_examples=80, deadline=None)
@given(st.one_of(weighted_games(max_n=10), two_leaf_combos(max_n=10)))
def test_dp_matches_table_on_random_games(g):
    """The weight-space DP and the full-table path give the same exact
    numerators and denominators."""
    for dp, table in ((ssi_dp, ssi), (pbi_dp, pbi)):
        got, want = dp(g), table(g)
        assert (got.nums, got.den) == (want.nums, want.den)


@pytest.mark.parametrize(
    "frac, text",
    [
        (Fraction(1, 15), "0.0666667"),
        (Fraction(1, 60), "0.0166667"),
        (Fraction(2, 115), "0.0173913"),
        (Fraction(0), "0.0000000"),
        (Fraction(1, 2), "0.5000000"),
        (Fraction(-1, 15), "-0.0666667"),
    ],
)
def test_decimal_rendering(frac, text):
    assert decimal_str(frac) == text


def test_decimal_rendering_rounds_half_up():
    assert decimal_str(Fraction(15, 1000), 2) == "0.02"
    assert decimal_str(Fraction(25, 1000), 2) == "0.03"
    assert decimal_str(Fraction(3), 0) == "3"


@pytest.mark.parametrize(
    "text",
    [
        "[1/12;0,0,0,0,0,0,0,0,4,9] & [1/12;0,0,0,0,4,9,9,9,9,9]",
        "[1/12;0,0,0,0,0,8,9] & [1/12;0,6,9,9,9,9,9]",
    ],
)
def test_dp_axes_ignore_the_quota_denominator(text):
    """Integer weights keep integer weight-sum axes whatever the quota's
    denominator: scaled by 12, these axes would hold more than the default
    10**6 cells.  The DP still matches the table."""
    g = parse_game(text)
    for leaf in g.parts:
        assert leaf.scaled_ints() == (1, tuple(int(w) for w in leaf.weights))
    for dp, table in ((ssi_dp, ssi), (pbi_dp, pbi)):
        got, want = dp(g), table(g)
        assert (got.nums, got.den) == (want.nums, want.den)
