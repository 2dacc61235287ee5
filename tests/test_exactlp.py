"""Exact rational feasibility solving and weightedness certificates."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    feasible_by_fourier_motzkin,
    simplex_one_system,
    sorted_complete_representation,
    weighted_by_inclusion_lp,
)

from votekit import certified, exactlp
from votekit.enumeration import (
    classify_weighted_chunk,
    iter_complete_chunks,
    shift_maximal_losing_families,
    shift_minimal_families,
)
from votekit.exactlp import solve_block, solve_nonneg_geq
from votekit.games import (
    WeightedGame,
    is_weighted,
    parse_game,
    shift_maximal_losing,
    to_explicit,
)
from votekit.indices import batch_ssi_numerators, batch_swing_counts


def check(num_vars, rows):
    x = solve_nonneg_geq(num_vars, rows)
    assert x is not None
    assert all(v >= 0 for v in x)
    for coeffs, b in rows:
        assert sum(c * v for c, v in zip(coeffs, x)) >= b
    return x


def test_no_rows_is_trivially_feasible():
    assert solve_nonneg_geq(3, []) == [0, 0, 0]


def test_simple_feasible_system():
    check(2, [([1, 1], 2), ([1, -1], 0)])


def test_solution_is_exact_rational():
    # x1 >= 1/3 forced through integer data: 3 x1 >= 1.
    x = check(1, [([3], 1)])
    assert x[0] == Fraction(1, 3)


def test_infeasible_system():
    assert solve_nonneg_geq(1, [([-1], 1)]) is None
    assert solve_nonneg_geq(2, [([1, 1], 1), ([-1, -1], 1)]) is None


def test_redundant_and_degenerate_rows_terminate():
    rows = [([1, 0], 1), ([1, 0], 1), ([2, 0], 2), ([0, 1], 0), ([1, 1], 1)]
    check(2, rows)


def test_input_validation():
    with pytest.raises(ValueError):
        solve_nonneg_geq(2, [([1], 1)])
    with pytest.raises(ValueError):
        solve_nonneg_geq(1, [([1], -1)])


@pytest.mark.parametrize(
    "text",
    ["[3;3,2,1,1]", "[2;1,1,1]", "[5;3,2,2,1,1]", "n=5; shiftminwin={1,2},{1,3,4}"],
)
def test_weighted_certificates_reproduce_the_game(text):
    g = parse_game(text)
    rep = is_weighted(g)
    assert rep is not None
    assert to_explicit(rep).table == to_explicit(g).table
    # Integer weights, gcd-free, quota tight at the cheapest winning set.
    assert all(w.denominator == 1 for w in rep.weights)
    assert rep.quota.denominator == 1


def test_every_five_voter_complete_game_is_weighted(catalogs):
    """Completeness forces weightedness through five voters."""
    cat = catalogs("cg", 5)
    for g in cat:
        rep = is_weighted(g)
        assert rep is not None
        assert to_explicit(rep).table == to_explicit(g).table


def test_sorted_representation_agrees_with_general_solver(catalogs):
    """The chunk classifier and is_weighted must return the
    difference-space LP's certificates, and its verdicts must match the LP
    over inclusion-minimal winning and inclusion-maximal losing
    coalitions, which needs no voter order."""
    games = list(catalogs("cg", 6))[::7]
    tables = np.array([to_explicit(g).np_table for g in games])
    weighted, certs = classify_weighted_chunk(
        6, shift_minimal_families(tables, 6), shift_maximal_losing_families(tables, 6)
    )
    assert 0 < weighted.sum() < len(games)
    chunk_certs = iter(certs.tolist())
    for g, flag in zip(games, weighted, strict=True):
        sml = shift_maximal_losing(g)
        r = sorted_complete_representation(g.n, g.shift_minimal, sml)
        rep = is_weighted(g)
        assert (r is None) == (rep is None) == (weighted_by_inclusion_lp(g) is None) == (not flag)
        if r is not None:
            q, w = r
            assert [q, *w] == next(chunk_certs)
            assert rep == WeightedGame(q, w)
            assert all(w[i] >= w[i + 1] for i in range(len(w) - 1))
            rep = parse_game(f"[{q};{','.join(str(x) for x in w)}]")
            assert to_explicit(rep).table == to_explicit(g).table


def _systems(num_vars):
    row = st.tuples(st.lists(st.integers(-3, 3), min_size=num_vars, max_size=num_vars), st.integers(0, 3))
    return st.lists(row, max_size=6)


def _block(num_vars, systems):
    """coeffs and rhs arrays of a block, shorter systems padded with zero rows."""
    rows = max((len(s) for s in systems), default=0)
    coeffs = np.zeros((len(systems), rows, num_vars), dtype=np.int64)
    rhs = np.zeros((len(systems), rows), dtype=np.int64)
    for k, system in enumerate(systems):
        for i, (c, b) in enumerate(system):
            coeffs[k, i], rhs[k, i] = c, b
    return coeffs, rhs


def _answers(num_vars, systems):
    feasible, nums, dens = solve_block(*_block(num_vars, systems))
    return [
        [Fraction(int(x), int(d)) for x in row] if ok else None
        for ok, row, d in zip(feasible, nums, dens)
    ]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda v: st.tuples(st.just(v), _systems(v))))
def test_solution_is_feasible_and_none_means_infeasible(case):
    num_vars, rows = case
    x = solve_nonneg_geq(num_vars, rows)
    assert (x is not None) == feasible_by_fourier_motzkin(num_vars, rows)
    if x is not None:
        check(num_vars, rows)
    # The condensed block tableau pivots like the full one-system tableau.
    assert x == simplex_one_system(num_vars, rows)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4)
    .flatmap(lambda v: st.tuples(st.just(v), st.lists(_systems(v), min_size=1, max_size=8)))
    .flatmap(lambda c: st.tuples(st.just(c[0]), st.permutations(c[1])))
)
def test_block_answers_match_solving_alone(case):
    """Padding and the other systems of a block never change an answer."""
    num_vars, systems = case
    assert _answers(num_vars, systems) == [solve_nonneg_geq(num_vars, s) for s in systems]


def _tall_systems(num_vars):
    """Up to 17 rows with small entries: odd widths, several tournament
    rounds and ties in the ratio test."""
    row = st.tuples(st.lists(st.integers(-2, 2), min_size=num_vars, max_size=num_vars), st.integers(0, 2))
    return st.lists(row, max_size=17)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda v: st.tuples(st.just(v), st.lists(_tall_systems(v), min_size=1, max_size=6))
    )
)
def test_ratio_test_tournament_pivots_like_a_row_scan(case):
    """The tournament picks the leaving row that the one-system solver's
    row-by-row scan picks, so every answer is its vertex, in any block."""
    num_vars, systems = case
    expected = [simplex_one_system(num_vars, s) for s in systems]
    assert _answers(num_vars, systems) == expected
    assert [solve_nonneg_geq(num_vars, s) for s in systems] == expected


def test_overflow_guard_continues_in_python_integers():
    """Entries near 2**20 fit int64 at the start but not after a pivot, so
    the block continues in Python integers, with the same answer alone and
    beside a small system."""
    big = 1 << 20
    rows = [
        ([big + 1, big - 1, 3], big),
        ([big - 3, 5, big + 7], big // 2),
        ([7, big + 11, big - 13], big + 1),
    ]
    small = [([1, -1, 0], 1), ([0, 2, -1], 1)]
    feasible, nums, dens = solve_block(*_block(3, [rows]))
    assert nums.dtype == object
    assert feasible_by_fourier_motzkin(3, rows)
    x = check(3, rows)
    assert max(v.denominator for v in x) >= 1 << 31
    assert _answers(3, [small, rows]) == [solve_nonneg_geq(3, small), x]
    assert x == simplex_one_system(3, rows)
    huge = [([c << 40 for c in coeffs], b << 40) for coeffs, b in rows]
    assert solve_nonneg_geq(3, huge) == x


def _divisor(guard):
    """Odd divisors, even ones and powers of two, all below guard."""
    return st.one_of(
        st.integers(0, guard // 2 - 1).map(lambda k: 2 * k + 1),
        st.integers(1, guard // 2 - 1).map(lambda k: 2 * k),
        st.integers(0, guard.bit_length() - 2).map(lambda s: 1 << s),
    )


@pytest.mark.parametrize("dtype, guard", exactlp._LADDER)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_exact_division_is_floor_division_on_every_rung(dtype, guard, data):
    """A wrapping multiply by the odd part's 2-adic inverse, then a shift,
    divides every multiple that fits the rung's width exactly."""
    top = int(np.iinfo(dtype).max)  # |x| < 2**(bits - 1)
    pairs = data.draw(
        st.lists(
            _divisor(guard).flatmap(
                lambda d: st.tuples(st.just(d), st.integers(-(top // d), top // d).map(lambda q: q * d))
            ),
            min_size=1,
            max_size=20,
        )
    )
    divisors = np.array([d for d, _ in pairs], dtype=dtype)
    multiples = np.array([x for _, x in pairs], dtype=dtype)
    inv, shift = exactlp._exact_divisor(divisors, dtype)
    assert ((multiples * inv) >> shift).tolist() == [x // d for d, x in pairs]


def _near(base):
    """An entry within 3 of 0, base or -base."""
    return st.tuples(st.sampled_from((0, base, -base)), st.integers(-3, 3)).map(sum)


def _systems_near(num_vars, base):
    row = st.tuples(st.lists(_near(base), min_size=num_vars, max_size=num_vars), st.integers(0, 2))
    return st.lists(row, max_size=6)


@pytest.mark.parametrize("base", [1 << 6, 1 << 14])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_blocks_crossing_rungs_pivot_like_one_system(base, data):
    """Entries near 2**6 (2**14) start a block on int16 (int32) and outgrow
    it after a pivot or two; neither the widening nor the rest of the block
    changes an answer."""
    num_vars = data.draw(st.integers(1, 4))
    systems = data.draw(st.lists(_systems_near(num_vars, base), min_size=1, max_size=6))
    expected = [simplex_one_system(num_vars, s) for s in systems]
    assert _answers(num_vars, systems) == expected
    assert [solve_nonneg_geq(num_vars, s) for s in systems] == expected


def _recorded_rungs(monkeypatch) -> list[str]:
    """The dtype of every ratio test that solve_block runs from now on."""
    seen = []
    leaving_rows = exactlp._leaving_rows

    def record(t, r, basis):
        seen.append(t.dtype.name)
        return leaving_rows(t, r, basis)

    monkeypatch.setattr(exactlp, "_leaving_rows", record)
    return seen


@pytest.mark.parametrize("base, rungs", [(1 << 6, ["int16", "int32"]), (1 << 14, ["int32", "int64"])])
def test_a_block_moves_up_the_ladder_between_pivots(monkeypatch, base, rungs):
    rows = [
        ([base + 1, base - 1, 3], 1),
        ([3 - base, 5, base + 2], 0),
        ([7, base + 1, 2 - base], 0),
        ([base - 1, -3, base + 3], 0),
    ]
    seen = _recorded_rungs(monkeypatch)
    x = check(3, rows)
    assert seen == rungs
    assert x == simplex_one_system(3, rows)


def _classify(n, tables):
    return classify_weighted_chunk(n, shift_minimal_families(tables, n), shift_maximal_losing_families(tables, n))


@pytest.mark.parametrize(
    "n, tables",
    [
        (6, lambda: np.concatenate(list(iter_complete_chunks(6)))),
        (8, lambda: next(iter_complete_chunks(8))[:512]),
    ],
    ids=["every-n6-game", "first-512-n8-games"],
)
def test_object_arithmetic_agrees_with_the_ladder(monkeypatch, n, tables):
    """With the ladder empty every pivot runs on Python integers and floor
    division; the flags and certificates are the fixed-width rungs'."""
    tables = tables()
    if n == 6:
        assert len(tables) == certified.GAME_COUNTS["cg"][6]
    weighted, certs = _classify(n, tables)
    monkeypatch.setattr(exactlp, "_LADDER", ())
    seen = _recorded_rungs(monkeypatch)
    slow_weighted, slow_certs = _classify(n, tables)
    assert set(seen) == {"object"}
    assert np.array_equal(slow_weighted, weighted)
    assert np.array_equal(slow_certs, certs)


# sha256 of each wg{n}.cert.npy's (quota, weights...) rows as little-endian
# int64, as the scalar solver wrote them; any change to the pivot rule or to
# the integer post-processing shows here.
CERTIFICATE_DIGESTS = {
    3: "be5860e4e3be9f530dea0238e380e3aa7e76dd7dab996cdeec5cbfe79accc662",
    4: "f0e21e1c7a45490e95a3c0ba06372f95e985a7fcb93daffc8c2b1f5deb6e7c44",
    5: "b391e842835c1b1fa61c64fc601efe90380596ea33b334267f956f18f99e6f8a",
    6: "7a5cf3a0181be7c943a89c1308f20f1629e72c66effe450b74ff0875a3c4ec15",
    7: "95744c8587c9cd316b64722c289cec5c00a3b80338f1a1e16675afbb90cb300d",
}


def _digest(rows) -> str:
    return hashlib.sha256(np.ascontiguousarray(rows, dtype="<i8").tobytes()).hexdigest()


@pytest.mark.parametrize("n", sorted(CERTIFICATE_DIGESTS))
def test_certificates_are_pinned(certificates, n):
    assert _digest(certificates(n)) == CERTIFICATE_DIGESTS[n]


def test_first_eight_voter_chunk_classifies_to_pinned_certificates():
    """The first 4,096 games with 8 voters are all weighted; their
    certificates are the scalar solver's."""
    weighted, certs = _classify(8, next(iter_complete_chunks(8))[:4096])
    assert weighted.all()
    assert _digest(certs) == "d7141a919377576c90b0fbd55753181c1c5253c274d6d045986bdc290066fccf"


def test_first_eight_voter_chunk_has_pinned_vector_rows():
    """The (numerators..., denominator) ssi and pbi rows of the first 4,096
    games with 8 voters, as the per-voter swing kernels wrote them."""
    tables = next(iter_complete_chunks(8))[:4096]
    nums, den = batch_ssi_numerators(tables)
    swings = batch_swing_counts(tables)
    ssi_rows = np.column_stack([nums, np.full(len(tables), den)])
    pbi_rows = np.column_stack([swings, swings.sum(axis=1)])
    assert _digest(ssi_rows) == "5634217a434c0e0bcc7b92630de56cf80a48aa802e8ebbc18b5225ed1449358f"
    assert _digest(pbi_rows) == "dbda80228f9e3d7361ed3ac6d0bac846e199a05c97d28e470e232aeb1c683e4d"
