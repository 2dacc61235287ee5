"""Catalogs of complete, weighted, and 4-voter simple games."""

import hashlib
import random
import struct
import tempfile
from functools import lru_cache
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votekit import enumeration
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
    LP_BLOCK,
    CatalogFormatError,
    _packed_prefix_counts,
    catalog_header,
    catalog_records,
    certificate_game,
    check_certified_count,
    classify_weighted_chunk,
    enumerate_simple4,
    fetch_catalog_games,
    iter_complete_chunks,
    read_catalog,
    read_catalog_header,
    shift_maximal_losing_families,
    shift_minimal_families,
    two_trade_rejects,
)
from votekit.games import (
    CompleteGame,
    DesirabilityOutcome,
    WeightedGame,
    _cover_steps,
    _difference_systems,
    _linear_extension,
    _listing,
    _lower_covers,
    _mask_lists,
    _prefix_counts,
    canonical_table,
    desirability,
    dominates,
    add_null_voters,
    game_to_text,
    is_weighted,
    parse_game,
    shift_maximal_losing,
    shift_minimal_winning,
    to_explicit,
)
from votekit.exactlp import solve_block
from votekit.pipeline import build_tier

from oracles import (
    catalog_records_by_matrix,
    difference_systems_by_matrix,
    families_by_neighbors,
    labelings_by_dfs,
    linear_extension_by_keys,
    lower_neighbors,
    monotone_games,
    prefix_counts,
    random_weighted,
    two_trade_by_pairs,
    upper_neighbors,
    weighted_by_inclusion_lp,
    weighted_games,
)


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
    for n in range(1, 9):
        order = _linear_extension(n)
        assert list(order) == linear_extension_by_keys(n)
        pos = {m: k for k, m in enumerate(order)}
        lowers, uppers = lower_neighbors(n), upper_neighbors(n)
        for m in order:
            # The two neighbour tables mirror each other, in both directions.
            for f in lowers[m]:
                assert pos[f] < pos[m]
                assert m in uppers[f]
            for u in uppers[m]:
                assert m in lowers[u]
            # The lower covers are weakenings, so they come first too.
            assert set(_lower_covers(n)[m]) <= set(lowers[m])


@pytest.mark.parametrize("n", range(1, 15))
def test_cover_table_marks_the_cover_steps(n):
    """The per-mask lower covers are the (coalition, cover) pairs that
    _cover_steps(n, True) marks, and the upper steps mark them reversed."""

    def pairs(winning):
        out = set()
        for s, words in _cover_steps(n, winning):
            marked = np.unpackbits(words.view(np.uint8), count=1 << n, bitorder="little")
            out.update((m, m + s) for m in np.flatnonzero(marked).tolist())
        return out

    lower = {(m, c) for m, covers in enumerate(_lower_covers(n)) for c in covers}
    assert pairs(True) == lower
    assert pairs(False) == {(c, m) for m, c in lower}


def test_shift_poset_dominance():
    # {1,3} dominates {2,4}: member-for-member at least as strong.
    assert dominates(0b0101, 0b1010, 4)
    assert not dominates(0b1010, 0b0101, 4)
    assert dominates(0b0011, 0b0011, 4)
    # one-step neighbours are comparable in the right direction
    for m in range(1 << 4):
        assert all(dominates(m, f, 4) for f in lower_neighbors(4)[m])
        assert all(dominates(u, m, 4) for u in upper_neighbors(4)[m])


@pytest.mark.parametrize("n", range(1, 9))
def test_prefix_counts_are_one_cached_int64_table(n):
    counts = _prefix_counts(n)
    assert counts is _prefix_counts(n)
    assert counts.dtype == np.int64 and counts.flags.c_contiguous
    assert counts.tolist() == [list(prefix_counts(n, m)) for m in range(1 << n)]


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


@pytest.mark.parametrize("n", range(1, 7))
def test_is_weighted_gives_catalog_games_their_stored_certificates(catalogs, certificates, n):
    """is_weighted decides a game as the catalog build does, so a weighted
    catalog game gets its stored certificate."""
    for g, row in zip(catalogs("wg", n), certificates(n), strict=True):
        assert is_weighted(g) == certificate_game(row)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_is_weighted_certifies_relabelled_weighted_games(data):
    """Whatever the voter order, a weighted game gets a certificate in
    that order that reproduces its table."""
    g = data.draw(weighted_games(max_n=9))
    perm = data.draw(st.permutations(range(g.n)))
    relabelled = WeightedGame(g.quota, [g.weights[i] for i in perm])
    rep = is_weighted(relabelled)
    assert rep is not None
    assert to_explicit(rep).table == to_explicit(relabelled).table


@settings(max_examples=100, deadline=None)
@given(monotone_games(max_n=7))
def test_is_weighted_verdicts_match_the_inclusion_lp(g):
    """Complete or not, a game is weighted exactly when the LP over its
    inclusion-minimal winning and inclusion-maximal losing coalitions is
    feasible."""
    rep = is_weighted(g)
    assert (rep is None) == (weighted_by_inclusion_lp(g) is None)
    if rep is not None:
        assert to_explicit(rep).table == g.table


def test_is_weighted_domain():
    """Incomplete games are rejected up to 24 voters; complete games need
    the shift family extractor, which stops at 14 voters."""
    crossed = parse_game("n=4; minwin={1,2},{3,4}")
    assert is_weighted(add_null_voters(crossed, 12)) is None
    with pytest.raises(ValueError, match="at most 14 voters"):
        is_weighted(WeightedGame(8, [1] * 15))


@pytest.mark.parametrize("n", [10, 11, 12])
def test_weighted_games_above_nine_voters_are_all_accepted(n):
    """Packed prefix counts need 7 bits a voter, which int64 holds only
    through 9 voters: the 2-trade filter refuses more, and the LP alone
    decides.  Random weighted games labelled heaviest first are all
    weighted, with certificates that reproduce them."""
    rng = random.Random(n)
    games = []
    for _ in range(8):
        g = random_weighted(rng, n)
        games.append(WeightedGame(g.quota, sorted(g.weights, reverse=True)))
    tables = np.array([to_explicit(g).np_table for g in games])
    win, lose = shift_minimal_families(tables, n), shift_maximal_losing_families(tables, n)
    with pytest.raises(ValueError):
        two_trade_rejects(n, win, lose)
    weighted, certs = classify_weighted_chunk(n, win, lose)
    assert weighted.all()
    for g, row in zip(games, certs, strict=True):
        assert to_explicit(certificate_game(row)).table == to_explicit(g).table


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


def _dfs_tables(n, games=None):
    """Outcome tables from the scalar DFS: the first `games` of them, or all."""
    tables = labelings_by_dfs(_linear_extension(n), lower_neighbors(n))
    return np.frombuffer(b"".join(islice(tables, games)), dtype=np.uint8).reshape(-1, 1 << n)


@pytest.mark.parametrize("n", range(1, 8))
def test_complete_chunks_match_the_scalar_dfs(n):
    assert np.array_equal(np.concatenate(list(iter_complete_chunks(n))), _dfs_tables(n))


@pytest.mark.parametrize("chunk", [1, 7, 5000])
def test_chunk_boundaries_fall_anywhere_in_a_block(monkeypatch, chunk):
    monkeypatch.setattr(enumeration, "DEFAULT_CHUNK", chunk)
    chunks = list(islice(iter_complete_chunks(8), 3))
    assert [len(c) for c in chunks] == [chunk] * 3
    assert np.array_equal(np.concatenate(chunks), _dfs_tables(8, 3 * chunk))


def test_chunks_kept_across_next_are_not_overwritten(monkeypatch):
    monkeypatch.setattr(enumeration, "DEFAULT_CHUNK", 7)
    kept = list(iter_complete_chunks(5))
    assert np.array_equal(np.concatenate(kept), _dfs_tables(5))


def test_first_eight_voter_tables_are_pinned():
    """sha256 of the first 65,536 outcome tables with 8 voters, uint8 and
    row-major, as the scalar DFS produced them."""
    chunks = islice(iter_complete_chunks(8), -(-65536 // enumeration.DEFAULT_CHUNK))
    tables = np.concatenate(list(chunks))[:65536]
    assert hashlib.sha256(tables.tobytes()).hexdigest() == "f220eadf48b8b9eaa56c8e1605fd89ffc6577b315e16b172c371f98a67a15cfd"


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


def family_matrix(n, families):
    """The (games, 2**n) boolean matrix marking each family's masks."""
    out = np.zeros((len(families), 1 << n), dtype=bool)
    for row, masks in zip(out, families):
        row[list(masks)] = True
    return out


def save_catalog(path, klass, n, games):
    records = catalog_records(n, _listing(family_matrix(n, [g.shift_minimal for g in games])))
    path.write_bytes(catalog_header(klass, n, len(games)) + records.tobytes())


def test_catalog_io_round_trip(tmp_path, catalogs):
    cat = catalogs("cg", 4)
    path = tmp_path / "cg4.cat"
    save_catalog(path, "cg", 4, cat)
    back = read_catalog(path)
    assert all(g.n == 4 for g in back)
    assert back == cat
    assert read_catalog_header(path) == ("cg", 4, len(cat))


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


def _families(n, games=None):
    """(win, lose) family listings of every complete game with n voters,
    or of the first games of them, which must fit the first chunk."""
    if games is None:
        tables = np.concatenate(list(iter_complete_chunks(n)))
    else:
        tables = next(iter_complete_chunks(n))[:games]
    return shift_minimal_families(tables, n), shift_maximal_losing_families(tables, n)


@pytest.mark.parametrize("n", range(1, 8))
def test_two_trade_filter_rejects_exactly_the_unweighted_games(n):
    """Through 7 voters the LP finds no weights for any game the 2-trade
    filter rejects, and the filter rejects as many games as the certified
    counts leave unweighted: it rejects exactly the unweighted games."""
    win, lose = _families(n)
    rejected = np.flatnonzero(two_trade_rejects(n, win, lose))
    assert len(rejected) == COMPLETE_COUNTS[n] - WEIGHTED_COUNTS[n]
    for start in range(0, len(rejected), LP_BLOCK):
        games = rejected[start : start + LP_BLOCK]
        feasible, _, _ = solve_block(*_difference_systems(n, win.take(games), lose.take(games)))
        assert not feasible.any()


def test_two_trade_filter_keeps_the_first_eight_voter_chunk():
    """The first 4,096 games with 8 voters are all weighted (their
    certificates are pinned in test_exactlp); the filter rejects none."""
    assert not two_trade_rejects(8, *_families(8, 4096)).any()


@pytest.mark.parametrize("n, block", [(4, 256), (5, 7), (6, 256), (6, 33)])
def test_two_trade_filter_matches_the_pair_oracle(monkeypatch, n, block):
    """Every game's flag is the brute-force search over pairs of pairs,
    whatever the blocks and their padding."""
    monkeypatch.setattr(enumeration, "TRADE_BLOCK", block)
    win, lose = _families(n)
    got = two_trade_rejects(n, win, lose)
    want = [two_trade_by_pairs(n, w, l) for w, l in zip(_mask_lists(win), _mask_lists(lose))]
    assert got.tolist() == want


@lru_cache(maxsize=None)
def _first_chunk(n):
    """(tables, win, lose): the first enumerated chunk of n-voter games,
    read-only, and its two family listings."""
    tables = next(iter_complete_chunks(n))
    tables.flags.writeable = False
    return tables, shift_minimal_families(tables, n), shift_maximal_losing_families(tables, n)


@st.composite
def _chunk_blocks(draw):
    """(n, games): 1..8 voters and a block of up to 64 distinct games of
    the first chunk, ascending or in random order."""
    n = draw(st.integers(1, 8))
    games = draw(st.lists(st.integers(0, len(_first_chunk(n)[0]) - 1), min_size=1, max_size=64, unique=True))
    if draw(st.booleans()):
        games.sort()
    return n, np.array(games)


@settings(max_examples=80, deadline=None)
@given(_chunk_blocks())
def test_listed_systems_match_the_matrix_oracle(block):
    """The weight-difference systems of a block's runs of the chunk
    listings are, entry for entry, those built row by row from the
    neighbour loop's family matrices of the same games."""
    n, games = block
    tables, win, lose = _first_chunk(n)
    coeffs, rhs = _difference_systems(n, win.take(games), lose.take(games))
    want = difference_systems_by_matrix(n, *families_by_neighbors(tables[games], n))
    assert coeffs.dtype == rhs.dtype == np.int8
    assert np.array_equal(coeffs, want[0]) and np.array_equal(rhs, want[1])


@settings(max_examples=80, deadline=None)
@given(_chunk_blocks(), st.sampled_from([1, 5, 128]))
def test_listed_two_trade_flags_match_the_pair_oracle(block, trade_block):
    """The 2-trade flags of a block's runs of the chunk listings are the
    pair-of-pairs search over the neighbour loop's families, whatever the
    filter's own blocks."""
    n, games = block
    tables, win, lose = _first_chunk(n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "TRADE_BLOCK", trade_block)
        got = two_trade_rejects(n, win.take(games), lose.take(games))
    want = [
        two_trade_by_pairs(n, np.flatnonzero(w), np.flatnonzero(l))
        for w, l in zip(*families_by_neighbors(tables[games], n))
    ]
    assert got.tolist() == want


@settings(max_examples=80, deadline=None)
@given(_chunk_blocks())
def test_listed_catalog_records_match_the_matrix_oracle(block):
    """The catalog records of a block's run of the winning listing are,
    byte for byte, the struct records of the neighbour loop's family
    matrix of the same games."""
    n, games = block
    tables, win, _ = _first_chunk(n)
    want = catalog_records_by_matrix(n, families_by_neighbors(tables[games], n)[0])
    assert catalog_records(n, win.take(games)).tobytes() == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_packed_prefix_comparison_is_componentwise(data):
    """The guard-bit test on packed prefix-count pair sums agrees with the
    plain componentwise <=, and padding never passes it."""
    n = data.draw(st.integers(1, 9))
    s1, s2, t1, t2 = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=4, max_size=4))
    packed, guard, pad = _packed_prefix_counts(n)
    low = int(packed[s1] + packed[s2])
    high = int(packed[t1] + packed[t2])
    plain = all(
        a + b <= c + d
        for a, b, c, d in zip(*(prefix_counts(n, m) for m in (s1, s2, t1, t2)))
    )
    assert (((high | guard) - low) & guard == guard) == plain
    for padded in (pad + int(packed[s1]), 2 * pad):
        assert ((high | guard) - padded) & guard != guard


def _struct_catalog(klass, n, families) -> bytes:
    """A VKCAT1 file encoded one struct record per game."""
    head = struct.pack("<6sBBQ", b"VKCAT1", {"cg": 0, "wg": 1}[klass], n, len(families))
    return head + b"".join(struct.pack(f"<H{len(f)}I", len(f), *f) for f in families)


@pytest.mark.parametrize("n", [6, 8])
def test_catalog_records_write_the_struct_records(tmp_path, catalogs, n):
    """The bulk encoder writes byte for byte the per-record struct
    encoding, on the cg6 catalog and on one 8-voter chunk, in two calls;
    the block decoder reads the families back."""
    if n == 6:
        families = [g.shift_minimal for g in catalogs("cg", 6)]
        listing = _listing(family_matrix(6, families))
    else:
        listing = _families(8, 4096)[0]
        families = _mask_lists(listing)
    path = tmp_path / "cat"
    with open(path, "wb") as fh:
        fh.write(catalog_header("cg", n, len(listing)))
        catalog_records(n, listing.take(np.arange(1000))).tofile(fh)
        catalog_records(n, listing.take(np.arange(1000, len(listing)))).tofile(fh)
    assert read_catalog_header(path) == ("cg", n, len(families))
    assert path.read_bytes() == _struct_catalog("cg", n, families)
    back = fetch_catalog_games(path, range(len(families)))
    assert [back[i].shift_minimal for i in range(len(families))] == families


@pytest.mark.parametrize("width", [0, 1 << 5, 1 << 7])
def test_catalog_records_reject_a_matrix_of_the_wrong_width(width):
    with pytest.raises(ValueError, match="expected 64 coalitions per game"):
        catalog_records(6, _listing(np.zeros((3, width), dtype=bool)))


@pytest.mark.parametrize("read_bytes", [1, 7, 64, 4099])
def test_catalog_decode_across_read_blocks(tmp_path, monkeypatch, catalogs, read_bytes):
    """Records that straddle the decoder's read blocks come out whole, and
    a truncated file still fails at the record it cuts."""
    monkeypatch.setattr(enumeration, "_READ_BYTES", read_bytes)
    games = catalogs("cg", 5)
    path = tmp_path / "cg5.cat"
    save_catalog(path, "cg", 5, games)
    assert read_catalog(path) == games
    picked = fetch_catalog_games(path, [116, 3, 0])
    assert picked == {i: games[i] for i in (0, 3, 116)}
    with pytest.raises(CatalogFormatError, match="no game at index 500"):
        fetch_catalog_games(path, [116, 3, 0, 500])
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(CatalogFormatError, match="truncated game record"):
        read_catalog(path)


@st.composite
def _random_up_sets(draw, max_n: int = 8):
    """(n, tables): the outcome tables of random complete games with
    1..max_n voters, the shift-order up-sets of random nonempty sets of
    nonempty coalitions."""
    n = draw(st.integers(1, max_n))
    gens = draw(
        st.lists(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=6), min_size=1, max_size=40)
    )
    return n, np.array([to_explicit(CompleteGame(n, masks, validate=False)).np_table for masks in gens])


@settings(max_examples=80, deadline=None)
@given(_random_up_sets(), st.sampled_from([1, 3, 64, 4099]), st.data())
def test_catalog_round_trip_on_random_families(up_sets, read_bytes, data):
    """Random shift-minimal families written by catalog_records come back
    whole from fetch_catalog_games at random positions, whatever the read
    block, and a truncated file still fails at the record it cuts."""
    n, tables = up_sets
    listing = shift_minimal_families(tables, n)
    want = _mask_lists(listing)
    picks = data.draw(st.sets(st.integers(0, len(want) - 1)))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_READ_BYTES", read_bytes)
        path = Path(tmp) / "cat"
        path.write_bytes(catalog_header("cg", n, len(listing)) + catalog_records(n, listing).tobytes())
        assert read_catalog_header(path) == ("cg", n, len(want))
        got = fetch_catalog_games(path, picks)
        assert {i: (g.n, g.shift_minimal) for i, g in got.items()} == {i: (n, want[i]) for i in picks}
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(CatalogFormatError, match="truncated game record"):
            fetch_catalog_games(path, [len(want) - 1])


def _assert_families_match_the_neighbour_loop(tables, n):
    got = shift_minimal_families(tables, n), shift_maximal_losing_families(tables, n)
    for family, want in zip(got, families_by_neighbors(tables, n), strict=True):
        assert family.width == 1 << n and family.masks.dtype == (np.uint8 if n <= 8 else np.uint16)
        assert _mask_lists(family) == [tuple(np.flatnonzero(row).tolist()) for row in want]


@pytest.mark.parametrize("n", range(1, 8))
def test_shift_families_match_the_neighbour_loop(n):
    """On every complete game with n voters, the cover test on packed
    words marks the families that the one-step neighbour loop marks."""
    _assert_families_match_the_neighbour_loop(np.concatenate(list(iter_complete_chunks(n))), n)


def test_shift_families_match_the_neighbour_loop_on_the_first_eight_voter_chunk():
    _assert_families_match_the_neighbour_loop(next(iter_complete_chunks(8))[:16384], 8)


@settings(max_examples=40, deadline=None)
@given(_random_up_sets(max_n=14))
def test_shift_families_match_the_neighbour_loop_on_random_up_sets(up_sets):
    """Through MAX_SHIFT_TABLE_VOTERS = 14 voters, on random shift-closed
    tables, where the packed rows span one word or many."""
    _assert_families_match_the_neighbour_loop(up_sets[1], up_sets[0])
