"""Catalogs of complete, weighted, and 4-voter simple games."""

import numpy as np
import pytest

from votekit.certified import (
    COMPLETE_COUNTS,
    SIMPLE_4_NONWEIGHTED_MINWIN,
    SIMPLE_4_TOTAL,
    SIMPLE_4_WEIGHTED,
    WEIGHTED_3_REPRESENTATIONS,
    WEIGHTED_COUNTS,
    CountMismatchError,
)
from votekit.enumeration import (
    CatalogFormatError,
    CatalogWriter,
    certificate_game,
    check_certified_count,
    enumerate_simple4,
    iter_catalog_masks,
    iter_complete_chunks,
    read_catalog,
    shift_maximal_losing_families,
    shift_minimal_families,
)
from votekit.games import (
    DesirabilityOutcome,
    _linear_extension,
    _lower_neighbors,
    _mask_lists,
    _upper_neighbors,
    canonical_table,
    desirability,
    dominates,
    game_to_text,
    is_weighted,
    parse_game,
    shift_maximal_losing,
    shift_minimal_winning,
    to_explicit,
)
from votekit.pipeline import build_tier


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_complete_and_weighted_counts(catalogs, n):
    assert len(catalogs("cg", n)) == COMPLETE_COUNTS[n]
    assert len(catalogs("wg", n)) == WEIGHTED_COUNTS[n]


def test_catalog_games_are_distinct_and_valid(catalogs):
    cat = catalogs("cg", 5)
    assert len({g.shift_minimal for g in cat}) == len(cat)
    for g in cat:
        # Strongest-first: adjacent voters always comparable, never reversed.
        for i in range(1, g.n):
            assert desirability(g, i, i + 1) in (
                DesirabilityOutcome.GEQ,
                DesirabilityOutcome.EQUAL,
            )


def test_shift_poset_linear_extension():
    order = _linear_extension(4)
    assert sorted(order) == list(range(1 << 4))
    pos = {m: k for k, m in enumerate(order)}
    lowers, uppers = _lower_neighbors(4), _upper_neighbors(4)
    for m in order:
        for f in lowers[m]:
            assert pos[f] < pos[m]
            assert m in uppers[f]  # the two neighbour tables mirror each other


def test_shift_poset_dominance():
    # {1,3} dominates {2,4}: member-for-member at least as strong.
    assert dominates(0b0101, 0b1010, 4)
    assert not dominates(0b1010, 0b0101, 4)
    assert dominates(0b0011, 0b0011, 4)
    # one-step neighbours are comparable in the right direction
    for m in range(1 << 4):
        assert all(dominates(m, f, 4) for f in _lower_neighbors(4)[m])
        assert all(dominates(u, m, 4) for u in _upper_neighbors(4)[m])


def test_weighted_three_voter_list(certificates):
    reps = {game_to_text(certificate_game(row)) for row in certificates(3)}
    assert reps == set(WEIGHTED_3_REPRESENTATIONS)


def test_weighted_catalog_certificates_are_sound(catalogs, certificates):
    for g, row in zip(catalogs("wg", 4), certificates(4), strict=True):
        rep = certificate_game(row)
        assert to_explicit(rep).table == to_explicit(g).table


def test_weighted_certificate_function(catalogs, certificates):
    """Stored certificates agree with the general weightedness test: a
    complete game has one exactly when it is in the weighted catalog."""
    stored = {
        g.shift_minimal: certificate_game(row)
        for g, row in zip(catalogs("wg", 6), certificates(6), strict=True)
    }
    cat = catalogs("cg", 6)
    for g in list(cat)[::61]:
        rep = stored.get(g.shift_minimal)
        assert (rep is not None) == (is_weighted(g) is not None)
        if rep is not None:
            assert to_explicit(rep).table == to_explicit(g).table


def test_simple4_catalog():
    pairs = enumerate_simple4()
    assert len(pairs) == SIMPLE_4_TOTAL
    assert sum(w is not None for _, w in pairs) == SIMPLE_4_WEIGHTED
    for g, w in pairs:
        if w is not None:
            assert to_explicit(w).table == g.table
    nonweighted = {canonical_table(g).table for g, w in pairs if w is None}
    expected = set()
    for fams in SIMPLE_4_NONWEIGHTED_MINWIN:
        sets = ",".join("{" + ",".join(map(str, f)) + "}" for f in fams)
        expected.add(canonical_table(parse_game(f"n=4; minwin={sets}")).table)
    assert nonweighted == expected


def test_enumerate_rejects_out_of_range(tmp_path):
    for n in (0, 9):
        with pytest.raises(ValueError):
            build_tier(n, tmp_path)
        with pytest.raises(ValueError):
            next(iter_complete_chunks(n))
    assert list(tmp_path.iterdir()) == []


def test_check_certified_count():
    check_certified_count("cg", 5, 117)
    with pytest.raises(CountMismatchError) as exc:
        check_certified_count("cg", 5, 116)
    assert exc.value.expected == 117 and exc.value.got == 116
    check_certified_count("cg", 12, 999)  # nothing certified: no opinion


def save_catalog(path, klass, n, games):
    w = CatalogWriter(path, klass, n)
    w.add_many([g.shift_minimal for g in games])
    w.close()


def test_catalog_io_round_trip(tmp_path, catalogs):
    cat = catalogs("cg", 4)
    path = tmp_path / "cg4.cat"
    save_catalog(path, "cg", 4, cat)
    back = read_catalog(path)
    assert all(g.n == 4 for g in back)
    assert back == cat
    (klass, nn, count), chunks = iter_catalog_masks(path)
    assert (klass, nn, count) == ("cg", 4, len(cat))
    families = [fam for chunk in chunks for fam in chunk]
    assert families == [g.shift_minimal for g in cat]


def test_catalog_io_detects_corruption(tmp_path, catalogs):
    cat = catalogs("cg", 4)
    path = tmp_path / "cg4.cat"
    save_catalog(path, "cg", 4, cat)
    raw = bytearray(path.read_bytes())
    raw[:2] = b"XX"
    path.write_bytes(bytes(raw))
    with pytest.raises(CatalogFormatError):
        read_catalog(path)
    save_catalog(path, "cg", 4, cat)
    path.write_bytes(path.read_bytes()[:-5])  # truncated tail
    with pytest.raises(CatalogFormatError):
        read_catalog(path)


def test_enumerate_weighted_derives_from_complete(catalogs):
    """The weighted catalog is the complete one filtered, in stream order."""
    wg, cg = catalogs("wg", 5), catalogs("cg", 5)
    assert len(wg) == WEIGHTED_COUNTS[5]
    position = {g.shift_minimal: i for i, g in enumerate(cg)}
    picked = [position[g.shift_minimal] for g in wg]
    assert picked == sorted(picked)


@pytest.mark.parametrize("n", [3, 5])
def test_scalar_family_extractors_match_the_batch(catalogs, n):
    """shift_minimal_winning and shift_maximal_losing on one game agree
    with the batch extractors over every complete game's table."""
    games = catalogs("cg", n)
    tables = np.array([to_explicit(g).np_table for g in games])
    smw = _mask_lists(shift_minimal_families(tables, n))
    sml = _mask_lists(shift_maximal_losing_families(tables, n))
    for g, w, l in zip(games, smw, sml, strict=True):
        assert shift_minimal_winning(g).shift_minimal == w == g.shift_minimal
        assert shift_maximal_losing(g) == l
