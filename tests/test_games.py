"""Game types, the text grammar, and structural queries."""

import random
import re
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votekit.games import (
    BoolCombo,
    CompleteGame,
    DesirabilityOutcome,
    ExplicitGame,
    GameParseError,
    WeightedGame,
    _members,
    _relabelled,
    _subset_sums,
    add_null_voters,
    canonical_table,
    coalition_mask,
    coalition_members,
    desirability,
    dominates,
    evaluate,
    game_to_text,
    is_complete,
    is_weighted,
    parse_game,
    shift_maximal_losing,
    shift_minimal_winning,
    sort_by_desirability,
    to_explicit,
)

from oracles import (
    complete_families,
    desirability_by_loop,
    dominates_by_loop,
    is_complete_by_pairs,
    minwin_text_by_loop,
    monotone_games,
    not_shift_minimal_by_loop,
    null_voters_by_table,
    relabelled_by_loop,
    table_fault_by_loop,
    two_leaf_combos,
    weighted_games,
)


def test_coalition_mask_round_trip():
    assert coalition_mask([1, 3]) == 0b101
    assert coalition_members(0b101) == (1, 3)
    assert coalition_mask([]) == 0
    assert coalition_members(0) == ()


def test_parse_weighted():
    g = parse_game("[3;3,2,1,1]")
    assert isinstance(g, WeightedGame)
    assert g.quota == 3
    assert g.weights == (3, 2, 1, 1)
    assert g.n == 4


def test_parse_rational_entries():
    g = parse_game("[5/2;1.5,1,0.5]")
    assert g.quota == Fraction(5, 2)
    assert g.weights == (Fraction(3, 2), 1, Fraction(1, 2))


def test_parse_combo_precedence():
    # '&' binds tighter than '|'.
    g = parse_game("[1;1,0,0] | [1;0,1,0] & [1;0,0,1]")
    assert isinstance(g, BoolCombo) and g.op == "or"
    assert isinstance(g.parts[1], BoolCombo) and g.parts[1].op == "and"
    assert evaluate(g, {1}) == 1
    assert evaluate(g, {2}) == 0
    assert evaluate(g, {2, 3}) == 1


def test_parse_literals():
    g = parse_game("n=4; minwin={1,2},{3,4}")
    assert isinstance(g, ExplicitGame)
    assert evaluate(g, {1, 2}) == 1 and evaluate(g, {3, 4}) == 1
    assert evaluate(g, {1, 3}) == 0
    c = parse_game("n=7; shiftminwin={4,5,6,7},{2,4},{1}")
    assert isinstance(c, CompleteGame)
    assert c.n == 7


@pytest.mark.parametrize(
    "text",
    [
        "",
        "[3;3,2,1,1",
        "[0;1,1]",
        "[3;1,1]",
        "[1;1,-1]",
        "[1;1,1] |",
        "n=4; minwin=",
        "n=2; shiftminwin={1,3}",
        "[1;1] | [1;1,1]",
        "[1;1,1] extra",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(GameParseError):
        parse_game(text)


@pytest.mark.parametrize("n", [25, 64])
def test_minwin_literal_refuses_large_tables_before_building_them(n):
    """A minwin literal past the explicit-table bound fails on its voter
    count, before a 2**n table is allocated."""
    with pytest.raises(GameParseError, match=f"explicit tables support 1..24 voters, got {n}"):
        parse_game(f"n={n}; minwin={{1}},{{{n}}}")


@pytest.mark.parametrize(
    "text",
    [
        "[3;3,2,1,1]",
        "[5/2;1.5,1,0.5]",
        "[2;1,1,0,0] | [2;0,0,1,1]",
        "[1;1,0,0] | [1;0,1,0] & [1;0,0,1]",
        "n=4; minwin={1,2},{3,4}",
        "n=7; shiftminwin={4,5,6,7},{2,4},{1}",
    ],
)
def test_text_round_trip(text):
    """game_to_text inverts parse_game, and outcomes survive the trip."""
    g = parse_game(text)
    h = parse_game(game_to_text(g))
    assert to_explicit(g).table == to_explicit(h).table
    assert game_to_text(h) == game_to_text(g)


@settings(max_examples=80, deadline=None)
@given(st.one_of(weighted_games(max_n=8, rational=True), two_leaf_combos(max_n=8, rational=True)))
def test_text_round_trip_on_random_games(g):
    text = game_to_text(g)
    h = parse_game(text)
    assert to_explicit(h).table == to_explicit(g).table
    assert game_to_text(h) == text


@pytest.mark.parametrize(
    "game, text",
    [
        (WeightedGame(Fraction(5, 2), [Fraction(3, 2), 1, Fraction(1, 2)]), "[5/2;3/2,1,1/2]"),
        (WeightedGame(Fraction(6, 3), [Fraction(4, 2), 0]), "[2;2,0]"),
        (CompleteGame(8, [0b1, 0b10000010], validate=False), "n=8; shiftminwin={1},{2,8}"),
        (CompleteGame(12, [0b11, 0b101000000000], validate=False), "n=12; shiftminwin={1,2},{10,12}"),
    ],
)
def test_text_forms(game, text):
    """Fractions print in lowest terms, whole ones as integers; complete
    games print alike with tabulated coalition strings (through 8
    voters) and without."""
    assert game_to_text(game) == text


def test_evaluate_accepts_masks_and_members():
    g = parse_game("[3;3,2,1,1]")
    assert evaluate(g, 0b0011) == evaluate(g, {1, 2}) == 1
    assert evaluate(g, 0b1100) == evaluate(g, {3, 4}) == 0
    with pytest.raises(ValueError):
        evaluate(g, 1 << 4)


@pytest.mark.parametrize("quota", [2**63 + 3, 2**63 + 2**62 + 1, Fraction(2**64 + 1, 2)])
def test_weighted_table_past_int64(quota):
    """Weight sums past 2**62 tabulate exactly: to_explicit agrees with
    evaluate, including where the quota and a sum differ by 1."""
    g = WeightedGame(quota, [2**63, 2**62, 3, 2**63])
    assert list(to_explicit(g).table) == [evaluate(g, m) for m in range(1 << 4)]


def test_weighted_game_validation():
    with pytest.raises(ValueError):
        WeightedGame(0, [1, 1])
    with pytest.raises(ValueError):
        WeightedGame(3, [1, 1])
    with pytest.raises(ValueError):
        WeightedGame(1, [])
    with pytest.raises(ValueError):
        WeightedGame(1, [1, -1])


def test_explicit_game_validation():
    with pytest.raises(ValueError):
        ExplicitGame(2, bytes([1, 0, 0, 1]))  # empty coalition wins
    with pytest.raises(ValueError):
        ExplicitGame(3, bytes([0, 1, 0, 0, 0, 0, 0, 1]))  # {1} wins, {1,2} loses
    with pytest.raises(ValueError):
        ExplicitGame(2, bytes([0, 0, 0, 0]))  # full coalition loses


def test_desirability_outcomes():
    g = parse_game("[3;2,1,1]")
    assert desirability(g, 1, 2) is DesirabilityOutcome.GEQ
    assert desirability(g, 2, 3) is DesirabilityOutcome.EQUAL
    assert desirability(g, 2, 1) is DesirabilityOutcome.LEQ
    h = parse_game("n=4; minwin={1,2},{3,4}")
    assert desirability(h, 1, 3) is DesirabilityOutcome.INCOMPARABLE


@pytest.mark.parametrize("i, j", [(5, 1), (1, 5), (0, 1), (1, 0), (7, 7), (-1, -1)])
def test_desirability_rejects_voters_outside_the_game(i, j):
    g = parse_game("[3;2,1,1]")
    bad = i if not 1 <= i <= 3 else j
    with pytest.raises(ValueError, match=rf"voter {bad} is not one of the game's 3 voters"):
        desirability(g, i, j)


def test_is_complete_and_sorting():
    ok, order = is_complete(parse_game("[3;1,2,3]"))
    assert ok
    sorted_g, perm = sort_by_desirability(parse_game("[3;1,2,3]"))
    assert evaluate(sorted_g, {1}) == 1  # strongest voter first
    not_complete, _ = is_complete(parse_game("n=4; minwin={1,2},{3,4}"))
    assert not not_complete


def test_is_complete_orders_a_shuffled_twenty_voter_game():
    """A 20-voter weighted game is complete, in the order of its weights
    with ties by voter number: the six voters of weight 1 make every
    weight difference decide some coalition.  Sorted, its weights do not
    increase."""
    weights = [1] * 6 + [2] * 5 + [3] * 4 + [5] * 3 + [8] * 2
    random.Random(20).shuffle(weights)
    g = WeightedGame(sum(weights) // 2 + 1, weights)
    order = tuple(sorted(range(1, 21), key=lambda v: (-weights[v - 1], v)))
    assert is_complete(g) == (True, order)
    sorted_g, perm = sort_by_desirability(g)
    assert perm == order
    sorted_weights = [weights[v - 1] for v in perm]
    assert sorted_weights == sorted(weights, reverse=True)
    assert sorted_g.table == to_explicit(WeightedGame(g.quota, sorted_weights)).table


@settings(max_examples=150, deadline=None)
@given(monotone_games(max_n=8))
def test_is_complete_matches_the_pairwise_oracle(e):
    """is_complete, from n - 1 neighbour tests, returns what testing every
    pair does, and sort_by_desirability relabels by its order or refuses."""
    ok, perm = is_complete_by_pairs(e)
    assert is_complete(e) == (ok, perm)
    if ok:
        assert sort_by_desirability(e) == (ExplicitGame(e.n, relabelled_by_loop(e, perm)), perm)
    else:
        with pytest.raises(ValueError, match="not total"):
            sort_by_desirability(e)


@settings(max_examples=30, deadline=None)
@given(weighted_games(max_n=12), st.randoms(use_true_random=False))
def test_is_complete_on_relabelled_weighted_games(g, rnd):
    """A weighted game is complete under any labelling, in the order that
    testing every pair gives."""
    perm = rnd.sample(range(1, g.n + 1), g.n)
    e = ExplicitGame(g.n, relabelled_by_loop(g, perm))
    ok, order = is_complete(e)
    assert ok and (ok, order) == is_complete_by_pairs(e)


@settings(max_examples=100, deadline=None)
@given(monotone_games(max_n=8))
def test_desirability_matches_the_loop(e):
    """desirability reads every ordered pair of voters as the loop over
    coalitions does."""
    for i in range(1, e.n + 1):
        for j in range(1, e.n + 1):
            assert desirability(e, i, j) is desirability_by_loop(e, i, j), (i, j)


@settings(max_examples=100, deadline=None)
@given(monotone_games(max_n=8), st.randoms(use_true_random=False))
def test_relabelling_and_canonical_table_match_the_loop(e, rnd):
    """One transpose relabels a table as the coalition loop does, and
    canonical_table is the sorted table of a complete game, the least
    relabelled table of an incomplete one through 6 voters, the same
    for every labelling at 7, and refused at 8."""
    perm = tuple(rnd.sample(range(1, e.n + 1), e.n))
    shuffled = relabelled_by_loop(e, perm)
    assert _relabelled(e, perm).table == shuffled
    ok, order = is_complete_by_pairs(e)
    if ok:
        assert canonical_table(e).table == relabelled_by_loop(e, order)
    elif e.n <= 6:
        orbit = permutations(range(1, e.n + 1))
        assert canonical_table(e).table == min(relabelled_by_loop(e, p) for p in orbit)
    elif e.n == 7:
        assert canonical_table(ExplicitGame(7, shuffled)) == canonical_table(e)
    else:
        with pytest.raises(ValueError, match="n <= 7"):
            canonical_table(e)


@settings(max_examples=100, deadline=None)
@given(monotone_games(max_n=8))
def test_explicit_game_text_matches_the_loop(e):
    """An explicit game prints its inclusion-minimal winning coalitions,
    and the literal closes upwards to the same table."""
    text = game_to_text(e)
    assert text == minwin_text_by_loop(e)
    assert parse_game(text) == e


@settings(max_examples=150, deadline=None)
@given(monotone_games(max_n=8), st.data())
def test_explicit_game_rejects_exactly_the_loop_faults(e, data):
    """With one entry of a game's table flipped, or set to 2, ExplicitGame
    refuses the table exactly when the loop finds a fault, with its
    message."""
    table = bytearray(e.table)
    at = data.draw(st.integers(0, len(table) - 1))
    table[at] = data.draw(st.sampled_from((table[at] ^ 1, 2)))
    fault = table_fault_by_loop(bytes(table))
    if fault is None:
        assert ExplicitGame(e.n, bytes(table)).table == bytes(table)
    else:
        with pytest.raises(ValueError, match=f"^{fault}$"):
            ExplicitGame(e.n, bytes(table))


def test_shift_minimal_winning():
    # {1,2} shifts down to the winning {1,3}, so only {1,3} is shift-minimal.
    c = shift_minimal_winning(parse_game("[3;2,1,1]"))
    assert c.shift_minimal == (coalition_mask([1, 3]),)
    back = to_explicit(c)
    assert back.table == to_explicit(parse_game("[3;2,1,1]")).table


@pytest.mark.parametrize("extract", [shift_minimal_winning, shift_maximal_losing])
def test_shift_families_refuse_a_table_that_is_not_shift_closed(extract):
    """Voter 2 outweighs voter 1, so {2} wins while {1} loses: the cover
    test would read families off a table that is not an up-set."""
    with pytest.raises(ValueError, match="not shift-closed"):
        extract(parse_game("[2;1,2,1]"))
    assert extract(sort_by_desirability(parse_game("[2;1,2,1]"))[0])


@pytest.mark.parametrize("extract", [shift_minimal_winning, shift_maximal_losing])
def test_shift_families_refuse_more_than_fourteen_voters(extract):
    """The family extractor packs all 2**n coalitions of a game, so it
    stops at MAX_SHIFT_TABLE_VOTERS = 14 voters."""
    assert extract(WeightedGame(8, [1] * 14))
    with pytest.raises(ValueError, match="at most 14 voters"):
        extract(WeightedGame(8, [1] * 15))


@settings(max_examples=60, deadline=None)
@given(complete_families(max_n=16), st.randoms(use_true_random=False))
def test_complete_game_outcomes_match_the_loop(case, rnd):
    """Outcomes of a complete game, from its whole table through n = 12
    and from evaluate on sampled coalitions above that, are the bit loop's
    domination test over its shift-minimal family."""
    n, _, family = case
    g = CompleteGame(n, family)
    table = to_explicit(g).np_table
    sample = range(1 << n) if n <= 12 else [rnd.randrange(1 << n) for _ in range(300)]
    for m in sample:
        want = any(dominates_by_loop(m, s, n) for s in family)
        got = table[m] if n <= 12 else evaluate(g, m)
        assert got == want, (n, family, m)
    for m in list(sample)[:40]:
        assert dominates(m, family[0], n) == dominates_by_loop(m, family[0], n)
        assert dominates(family[0], m, n) == dominates_by_loop(family[0], m, n)


@settings(max_examples=60, deadline=None)
@given(complete_families(max_n=10))
def test_complete_game_value_is_the_explicit_outcome(case):
    """CompleteGame.value on every coalition is the explicit game's outcome
    and the bit loop's domination test over the shift-minimal family."""
    n, _, family = case
    g = CompleteGame(n, family)
    e = to_explicit(CompleteGame(n, family))
    for m in range(1 << n):
        want = int(any(dominates_by_loop(m, s, n) for s in family))
        assert g.value(m) == e.value(m) == want, (n, family, m)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, 2**40), min_size=n, max_size=n), min_size=1, max_size=20)
    )
)
def test_subset_sums_are_the_membership_product(rows):
    """The doubled subset sums of random weight rows are the product of
    the rows with the coalition-membership matrix, in int64."""
    weights = np.array(rows, dtype=np.int64)
    sums = _subset_sums(weights)
    assert sums.dtype == np.int64
    assert np.array_equal(sums, weights @ _members(len(rows[0])).T)


@settings(max_examples=100, deadline=None)
@given(complete_families(max_n=16))
def test_complete_game_validation_matches_the_loop(case):
    """CompleteGame refuses a list exactly when one of its coalitions has a
    one-step weakening that dominates a listed coalition, and names the
    first such coalition."""
    n, raw, family = case
    CompleteGame(n, family)
    bad = not_shift_minimal_by_loop(n, raw)
    if not bad:
        assert CompleteGame(n, raw).shift_minimal == tuple(family)
        return
    message = f"coalition {set(coalition_members(bad[0]))} is not shift-minimal"
    with pytest.raises(ValueError, match=re.escape(message)):
        CompleteGame(n, raw)


def test_padded_complete_game_tiles_the_base_table():
    # one of the two games at the n = 7 Shapley-Shubik L1 gap
    g = parse_game("n=7; shiftminwin={1,3,4,7},{1,2,6,7}")
    padded = to_explicit(add_null_voters(g, 13))
    assert padded.n == 20
    assert padded.np_table.tobytes() == np.tile(to_explicit(g).np_table, 1 << 13).tobytes()


def test_add_null_voters_preserves_outcomes():
    g = parse_game("[3;3,2,1,1]")
    h = add_null_voters(g, 2)
    assert h.n == 6
    for s in range(1 << 4):
        assert evaluate(h, s) == evaluate(g, s)
        assert evaluate(h, s | 0b110000) == evaluate(g, s)
    assert null_voters_by_table(h) == (4, 5)
    with pytest.raises(ValueError):
        add_null_voters(g, -1)


def test_add_null_voters_keeps_representation():
    assert isinstance(add_null_voters(parse_game("[1;1,1]"), 1), WeightedGame)
    c = parse_game("n=3; shiftminwin={1,2}")
    assert isinstance(add_null_voters(c, 1), CompleteGame)


def test_is_weighted_returns_valid_certificate():
    g = parse_game("n=5; shiftminwin={1,2},{1,3,4}")
    rep = is_weighted(g)
    assert rep is not None
    assert to_explicit(rep).table == to_explicit(g).table


def test_is_weighted_rejects_trade_failure():
    # {1,2} and {3,4} win but the swap {1,3} / {2,4} loses twice, which
    # no single weight vector can explain.
    assert is_weighted(parse_game("n=4; minwin={1,2},{3,4}")) is None


def test_canonical_table_is_relabelling_invariant():
    a = canonical_table(parse_game("[3;3,2,1,1]"))
    b = canonical_table(parse_game("[3;1,2,3,1]"))
    c = canonical_table(parse_game("[3;1,1,2,3]"))
    assert a.table == b.table == c.table
    d = canonical_table(parse_game("[4;1,1,1,1]"))
    assert d.table != a.table
