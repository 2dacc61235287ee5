"""Catalogs of complete, weighted, and 4-voter simple games."""

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
    check_certified_count,
    enumerate_simple4,
    iter_catalog_masks,
    iter_complete_chunks,
    read_catalog,
)
from votekit.games import (
    DesirabilityOutcome,
    _linear_extension,
    _lower_neighbors,
    _upper_neighbors,
    canonical_table,
    desirability,
    dominates,
    game_to_text,
    is_weighted,
    parse_game,
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


def test_weighted_three_voter_list(catalogs):
    cat = catalogs("wg", 3)
    reps = {game_to_text(cat.certificate(i)) for i in range(len(cat))}
    assert reps == set(WEIGHTED_3_REPRESENTATIONS)


def test_weighted_catalog_certificates_are_sound(catalogs):
    cat = catalogs("wg", 4)
    for i, g in enumerate(cat):
        rep = cat.certificate(i)
        assert to_explicit(rep).table == to_explicit(g).table


def test_weighted_certificate_function(catalogs):
    """Stored certificates agree with the general weightedness test: a
    complete game has one exactly when it is in the weighted catalog."""
    wg = catalogs("wg", 6)
    stored = {g.shift_minimal: wg.certificate(i) for i, g in enumerate(wg)}
    cat = catalogs("cg", 6)
    for g in list(cat)[::61]:
        rep = stored.get(g.shift_minimal)
        assert (rep is not None) == (is_weighted(g) is not None)
        if rep is not None:
            assert to_explicit(rep).table == to_explicit(g).table


def test_simple4_catalog():
    cat = enumerate_simple4()
    assert len(cat) == SIMPLE_4_TOTAL
    assert int(cat.weighted_flags.sum()) == SIMPLE_4_WEIGHTED
    nonweighted = {
        canonical_table(cat.games[i]).table
        for i in range(len(cat))
        if not cat.weighted_flags[i]
    }
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


def save_catalog(path, cat):
    w = CatalogWriter(path, cat.klass, cat.n)
    w.add_many([g.shift_minimal for g in cat])
    w.close()


def test_catalog_io_round_trip(tmp_path, catalogs):
    cat = catalogs("cg", 4)
    path = tmp_path / "cg4.cat"
    save_catalog(path, cat)
    back = read_catalog(path)
    assert back.klass == "cg" and back.n == 4
    assert [g.shift_minimal for g in back] == [g.shift_minimal for g in cat]
    (klass, nn, count), chunks = iter_catalog_masks(path)
    assert (klass, nn, count) == ("cg", 4, len(cat))
    families = [fam for chunk in chunks for fam in chunk]
    assert families == [g.shift_minimal for g in cat]


def test_catalog_io_detects_corruption(tmp_path, catalogs):
    cat = catalogs("cg", 4)
    path = tmp_path / "cg4.cat"
    save_catalog(path, cat)
    raw = bytearray(path.read_bytes())
    raw[:2] = b"XX"
    path.write_bytes(bytes(raw))
    with pytest.raises(CatalogFormatError):
        read_catalog(path)
    save_catalog(path, cat)
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
