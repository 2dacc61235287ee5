"""Cache orchestration: the streamed tier build and rebuild behaviour.

build_tier is the only builder of cg/wg catalogs for every n <= 8.  At 6
voters the whole pass (enumeration, classification, certificate checks,
store and position files, count certification, atomic installs, streamed
gap queries) runs in seconds against fully known counts.
"""

import functools
import os
import random
import subprocess
import sys
from concurrent import futures
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from votekit import certified, enumeration, pipeline
from votekit.certified import CountMismatchError
from votekit.enumeration import (
    CatalogFormatError,
    certificate_game,
    fetch_catalog_games,
    read_catalog,
    read_catalog_texts,
)
from votekit.games import WeightedGame, shift_minimal_winning, sort_by_desirability, to_explicit
from votekit.geometry import _reduced_rows, store_from_rows, unique_rows
from votekit.indices import KINDS
from votekit.pipeline import (
    _load_positions,
    _load_store,
    _UniqueAccumulator,
    build_tier,
    catalog_path,
    certificate_path,
    ensure_tier,
    load_certificates,
    load_games,
    load_listing,
    omega_tier,
    position_path,
    store_path,
    tier_counts,
    weighted_games,
    weighted_store,
)

from oracles import pbi_swings_by_subsets, ssi_by_permutations


def tier_files(cache, n):
    return sorted(p.name for p in pipeline._tier_paths(cache, n).values())


def test_unique_accumulator_counts_distinct_rows(monkeypatch):
    monkeypatch.setattr(pipeline, "_UNIQUE_LIMIT", 4)
    acc = _UniqueAccumulator(2)
    acc.add(np.array([[3, 4], [1, 2], [1, 2]], dtype=np.int64))
    acc.add(np.array([[3, 4], [5, 6]], dtype=np.int64))  # forces a compaction
    acc.add(np.array([[1, 2], [7, 8]], dtype=np.int64))
    rows, reps = acc.store(slice(None))
    assert acc.pending == [] and acc.pending_rows == 0
    # reps stay the first indices across compactions
    assert acc.base[rows].tolist() == [[1, 2], [3, 4], [5, 6], [7, 8]]
    assert reps.tolist() == [1, 0, 4, 6]
    # store() is idempotent and later adds still merge correctly
    assert [a.tolist() for a in acc.store(slice(None))] == [rows.tolist(), reps.tolist()]
    acc.add(np.array([[9, 9], [5, 6]], dtype=np.int64))
    rows, reps = acc.store(slice(None))
    assert len(rows) == 5
    assert reps.tolist() == [1, 0, 4, 6, 7]
    assert np.concatenate(acc.positions).tolist() == [1, 0, 0, 1, 2, 0, 3, 4, 2]
    # picked rows keep only their own distinct rows, with reps among them
    rows, reps = acc.store(np.array([0, 3, 4, 8]))
    assert acc.base[rows].tolist() == [[3, 4], [5, 6]]
    assert reps.tolist() == [0, 2]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda cols: st.lists(st.lists(st.integers(0, 3), min_size=cols, max_size=cols), min_size=1, max_size=60)
    ),
    st.lists(st.integers(1, 9), min_size=1, max_size=60),
    st.integers(1, 8),
    st.randoms(use_true_random=False),
)
def test_unique_accumulator_tracks_positions_across_compactions(matrix, sizes, limit, rng):
    """Fed a random matrix in random chunks, with a merge whenever a few
    distinct rows pend, the accumulator ends with the matrix's distinct
    rows, each rep the first row equal to it, and each row's position
    that of its distinct row; restricted to a random subset of each
    chunk, its store is that subset's distinct rows and first indices."""
    rows = np.array(matrix, dtype=np.int64)
    picked = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_UNIQUE_LIMIT", limit)
        acc = _UniqueAccumulator(rows.shape[1])
        start = 0
        for size in sizes * len(rows):
            if start >= len(rows):
                break
            chunk = rows[start : start + size]
            acc.add(chunk)
            picked += [i for i in range(start, start + len(chunk)) if rng.random() < 0.5]
            start += size
        full, reps = acc.store(slice(None))
        picked = np.array(picked, dtype=np.int64)
        some, some_reps = acc.store(picked)
    uniq, first, inverse = unique_rows(rows)
    assert np.array_equal(acc.base[full], uniq)
    assert np.array_equal(reps, first)
    assert np.array_equal(np.concatenate(acc.positions), inverse)
    uniq, first, _ = unique_rows(rows[picked])
    assert np.array_equal(acc.base[some], uniq)
    assert np.array_equal(some_reps, first)


def test_tier_build_keeps_one_accumulator_per_index_kind(tmp_path, monkeypatch):
    """The weighted stores are cut from the complete stores, so a build
    deduplicates each index kind once."""
    made = []

    class Counted(_UniqueAccumulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(pipeline, "_UniqueAccumulator", Counted)
    build_tier(5, tmp_path)
    assert len(made) == len(KINDS)


@pytest.mark.parametrize("n", range(1, 8))
def test_stored_vectors_equal_the_rebuilt_store(cache_dir, vectors, n):
    """Each store file holds the rows and reps that store_from_rows makes
    of the vectors recounted apart from the tier, and each complete
    game's position is the row of its reduced vector."""
    cache = ensure_tier(n, cache_dir)
    for klass in ("cg", "wg"):
        for kind in KINDS:
            stored = _load_store(cache, klass, n, kind)
            rebuilt = store_from_rows(kind, n, *vectors(klass, n, kind))
            assert np.array_equal(stored.rows, rebuilt.rows), (klass, kind)
            assert np.array_equal(stored.reps, rebuilt.reps), (klass, kind)
            if klass == "cg":
                pos = _load_positions(cache, stored)
                assert np.array_equal(stored.rows[pos], _reduced_rows(*vectors(klass, n, kind))), kind


def test_small_chunks_and_merges_build_the_same_tier(tmp_path, cache_dir, monkeypatch):
    """The 7-voter tier built from 1,024-game chunks, merging whenever
    700 distinct rows pend, is byte for byte the default build: positions
    survive dozens of merges."""
    monkeypatch.setattr(enumeration, "DEFAULT_CHUNK", 1024)
    monkeypatch.setattr(pipeline, "_UNIQUE_LIMIT", 700)
    build_tier(7, tmp_path)
    default = pipeline._tier_paths(ensure_tier(7, cache_dir), 7)
    for key, path in pipeline._tier_paths(tmp_path, 7).items():
        assert path.read_bytes() == default[key].read_bytes(), key


def test_load_games_rejects_unknown_class(tmp_path):
    for klass in ("xx", "sg4"):
        with pytest.raises(ValueError, match="catalog class"):
            load_games(klass, 4, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_loaders_check_names_before_the_cache(tmp_path):
    """An unknown class or index kind raises ValueError before a loader
    reads, builds or rewrites any tier file."""
    build_tier(4, tmp_path)
    before = {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()}
    calls = [
        lambda: tier_counts("xx", 4, cache_dir=tmp_path),
        lambda: tier_counts("cg", 4, ("ssi", "xx"), tmp_path),
        lambda: weighted_store(4, "xx", tmp_path),
        lambda: omega_tier(4, tmp_path, kinds=("xx",)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="unknown"):
            call()
    assert {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()} == before


def test_ensure_vectors_discards_wrong_kind_cache(tmp_path):
    """A pbi store file in place of the ssi one, its denominators not all
    divisors of 3! = 6, rebuilds the tier."""
    build_tier(3, tmp_path)
    path = store_path(tmp_path, "wg", 3, "ssi")
    good = path.read_bytes()
    path.write_bytes(store_path(tmp_path, "wg", 3, "pbi").read_bytes())

    store = weighted_store(3, "ssi", tmp_path)
    assert path.read_bytes() == good
    assert all(6 % d == 0 for d in store.rows[:, 3].tolist())


def test_ensure_vectors_discards_wrong_shape_cache(tmp_path):
    """A truncated, wrong-shape or missing tier file rebuilds the tier
    when a loader that reads it runs."""
    build_tier(4, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    pos = position_path(tmp_path, 4, "pbi")
    store = store_path(tmp_path, "cg", 4, "pbi")
    damages = [
        (pos, lambda p: p.write_bytes(p.read_bytes()[:-5])),
        (pos, lambda p: np.save(p, np.load(p)[:-1])),
        (store, lambda p: p.write_bytes(p.read_bytes()[:-5])),
        (store, lambda p: np.save(p, np.load(p)[:-1])),
        (certificate_path(tmp_path, 4), lambda p: p.unlink()),
        (catalog_path(tmp_path, "wg", 4), lambda p: p.write_bytes(p.read_bytes()[:-3])),
    ]
    readers = {  # a loader that reads each damaged file
        "cg4.pbi.pos.npy": lambda: _load_positions(
            ensure_tier(4, tmp_path), _load_store(tmp_path, "cg", 4, "pbi")
        ).tolist(),
        "cg4.pbi.store.npy": lambda: tier_counts("cg", 4, ("pbi",), tmp_path),
        "wg4.cert.npy": lambda: load_listing("wg", 4, tmp_path),
        "wg4.cat": lambda: [g.shift_minimal for g in load_games("wg", 4, tmp_path)],
    }
    for victim, damage in damages:
        load = readers[victim.name]
        want = load()
        damage(victim)
        assert load() == want
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def _damage_rebuilds(cache, n, victim, damage, match="rows are not"):
    """Damage the rows of a tier file, damage(rows) returning them
    damaged: the whole-tier check refuses the file and the next
    ensure_tier rebuilds the tier byte for byte."""
    before = {p.name: p.read_bytes() for p in cache.iterdir()}
    np.save(victim, damage(np.load(victim)))
    with pytest.raises(CatalogFormatError, match=match):
        pipeline._check_tier(n, cache)
    ensure_tier(n, cache)
    assert {p.name: p.read_bytes() for p in cache.iterdir()} == before


def _third_row(damage):
    """damage(row), applied to row 3 of a file's rows."""

    @functools.wraps(damage)
    def apply(rows):
        damage(rows[3])
        return rows

    return apply


def _zero(row):
    row[:] = 0  # 0 numerators sum to a 0 denominator


def _negative(row):
    row[:2] += (row[1] + 1, -(row[1] + 1))  # still sums to the denominator


@pytest.mark.parametrize("damage", [_zero, _negative])
def test_bad_vector_row_rebuilds_the_tier(tmp_path, damage):
    """A zero or negative entry in a stored weighted vector."""
    build_tier(5, tmp_path)
    _damage_rebuilds(tmp_path, 5, store_path(tmp_path, "wg", 5, "ssi"), _third_row(damage))


def _first_games(pos):
    """The first game at each store row, by row."""
    return np.unique(pos[:, 0], return_index=True)[1]


def _row_past_store(pos):
    pos[3] = certified.DISTINCT_VECTOR_COUNTS["cg", "pbi"][5]
    return pos


def _negative_row(pos):
    pos[3] = -1
    return pos


def _rep_not_pointing_back(pos):
    """The last rep moves to game 0's row, whose rep comes first."""
    pos[_first_games(pos).max()] = pos[0]
    return pos


def _non_first_rep(pos):
    """The first game that is no rep moves to the last rep's row, whose
    rep comes after it."""
    firsts = _first_games(pos)
    game = np.setdiff1d(np.arange(len(pos)), firsts).min()
    pos[game] = pos[firsts.max()]
    return pos


def _two_columns(pos):
    return np.hstack([pos, pos])


@pytest.mark.parametrize(
    "damage, match",
    [
        (_row_past_store, "rows are not"),
        (_negative_row, "rows are not"),
        (_rep_not_pointing_back, "rows are not"),
        (_non_first_rep, "rows are not"),
        (_two_columns, "expected int64 rows"),
    ],
)
def test_bad_position_file_rebuilds_the_tier(tmp_path, monkeypatch, damage, match):
    """Blocks of four rows, so that the check of positions and reps spans
    several blocks of each."""
    monkeypatch.setattr(pipeline, "_SCAN", 4)
    build_tier(5, tmp_path)
    _damage_rebuilds(tmp_path, 5, position_path(tmp_path, 5, "pbi"), damage, match)


def _zero_quota(row):
    row[0] = 0


def _negative_weight(row):
    row[-1] = -1


def _increasing(row):
    row[1:] = row[1:][::-1] + np.arange(len(row) - 1)  # weakest voter first


def _common_factor(row):
    row *= 2


def _light_weights(row):
    row[0] = row[1:].sum() + 1  # the grand coalition loses; the gcd stays 1


@pytest.mark.parametrize("damage", [_zero_quota, _negative_weight, _increasing, _common_factor, _light_weights])
def test_bad_certificate_row_rebuilds_the_tier(tmp_path, damage):
    build_tier(5, tmp_path)
    _damage_rebuilds(tmp_path, 5, certificate_path(tmp_path, 5), _third_row(damage))


def _record_start(words, index):
    """The word offset of record index among a catalog's u16 words."""
    at = 0
    for _ in range(index):
        at += 1 + 2 * int(words[at])
    return at


def _empty_family(words, at):
    words[at] = 0  # the record's masks now read as further records


def _mask_zero(words, at):
    words[at + 1] = 0


def _mask_past_voters(words, at):
    words[at + 1] = 0xFFFF


def _high_half(words, at):
    words[at + 2] = 1


def _masks_swapped(words, at):
    words[[at + 1, at + 3]] = words[[at + 3, at + 1]]


def _mask_repeated(words, at):
    words[at + 3] = words[at + 1]


@pytest.mark.parametrize(
    "damage, match",
    [
        (_empty_family, "lists no coalition"),
        (_mask_zero, "outside 1..31"),
        (_mask_past_voters, "outside 1..31"),
        (_high_half, "outside 1..31"),
        (_masks_swapped, "not strictly increasing"),
        (_mask_repeated, "not strictly increasing"),
    ],
)
def test_bad_catalog_record_rebuilds_the_tier(tmp_path, damage, match):
    """A wg5 record with no coalition, a mask outside 1..2**5 - 1 or masks
    out of order is refused by every catalog reader, and the listing and
    game loaders rebuild the tier byte for byte."""
    build_tier(5, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    path = catalog_path(tmp_path, "wg", 5)
    for load in (functools.partial(load_listing, "wg", 5, tmp_path), functools.partial(load_games, "wg", 5, tmp_path)):
        want = load()
        raw = np.frombuffer(before[path.name], dtype="<u2").copy()
        words = raw[8:]  # past the 16-byte header
        # The first record of two or more masks.
        index = next(i for i in range(117) if words[_record_start(words, i)] >= 2)
        damage(words, _record_start(words, index))
        path.write_bytes(raw.tobytes())
        for read in (read_catalog, read_catalog_texts, lambda p: fetch_catalog_games(p, [index])):
            with pytest.raises(CatalogFormatError, match=match):
                read(path)
        assert load() == want
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("extra", [np.array([1, 31, 0], dtype="<u2").tobytes(), b"\0"], ids=["record", "byte"])
def test_catalog_bytes_after_the_last_record_rebuild_the_tier(tmp_path, extra):
    """A well-formed record or a lone byte past wg5.cat's counted records
    is refused by both whole-catalog reads, fetch_catalog_games stops
    before it, and the listing and game loaders rebuild the tier byte for
    byte."""
    build_tier(5, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    path = catalog_path(tmp_path, "wg", 5)
    last = read_catalog(path)[-1]
    for load in (functools.partial(load_listing, "wg", 5, tmp_path), functools.partial(load_games, "wg", 5, tmp_path)):
        want = load()
        path.write_bytes(before[path.name] + extra)
        for read in (read_catalog, read_catalog_texts):
            with pytest.raises(CatalogFormatError, match="bytes after the last game record"):
                read(path)
        assert fetch_catalog_games(path, [116]) == {116: last}
        assert load() == want
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_rebuild_deletes_the_per_game_vector_files(tmp_path):
    """Building a tier over a cache that holds the per-game vector files
    of earlier versions deletes them; nothing reads them."""
    build_tier(4, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    legacy = [tmp_path / f"{klass}4.{kind}.npy" for klass in ("cg", "wg") for kind in KINDS]
    for path in legacy:
        np.save(path, np.zeros((3, 5), dtype=np.int64))
    other = tmp_path / "cg5.ssi.npy"  # another tier's file stays until that tier is built
    np.save(other, np.zeros((3, 6), dtype=np.int64))
    build_tier(4, tmp_path)
    assert not any(path.exists() for path in legacy)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p != other} == before
    assert other.exists()


def _swapped(rows):
    rows[[3, 4]] = rows[[4, 3]]
    return rows


def _duplicated(rows):
    rows[4] = rows[3]
    return rows


def _rep_past_catalog(rows):
    rows[3, -1] = certified.GAME_COUNTS["cg"][5]
    return rows


def _no_rep_column(rows):
    return rows[:, :-1]


@pytest.mark.parametrize(
    "damage, match",
    [
        (_swapped, "rows are not"),
        (_duplicated, "rows are not"),
        (_third_row(_common_factor), "rows are not"),
        (_third_row(_negative), "rows are not"),
        (_rep_past_catalog, "rows are not"),
        (_no_rep_column, "expected int64 rows"),
    ],
)
def test_bad_store_file_rebuilds_the_tier(tmp_path, monkeypatch, damage, match):
    """Blocks of four rows: the store files are written in several blocks,
    and rows 3 and 4 fall in different blocks of the check."""
    monkeypatch.setattr(pipeline, "_SCAN", 4)
    build_tier(5, tmp_path)
    _damage_rebuilds(tmp_path, 5, store_path(tmp_path, "cg", 5, "pbi"), damage, match)


def test_tier_without_store_files_is_rebuilt(tmp_path):
    """A tier written before its store files existed is not present, and
    the first loader that reads a store file rebuilds it below 8 voters."""
    build_tier(4, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    for klass in ("cg", "wg"):
        for kind in KINDS:
            store_path(tmp_path, klass, 4, kind).unlink()
    assert not all(p.exists() for p in pipeline._tier_paths(tmp_path, 4).values())
    assert tier_counts("wg", 4, cache_dir=tmp_path) == (25, {"ssi": 11, "pbi": 12})
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_build_tier_six_voters(tmp_path, monkeypatch):
    monkeypatch.setattr(enumeration, "DEFAULT_CHUNK", 256)
    seen = []
    counts = build_tier(6, cache_dir=tmp_path, progress=lambda done, total: seen.append((done, total)))

    assert counts == {
        "cg": 1171,
        "wg": 1111,
        "cg.ssi": 536,
        "cg.pbi": 555,
        "wg.ssi": 536,
        "wg.pbi": 555,
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == tier_files(tmp_path, 6)
    assert seen[-1] == (1171, 1171)
    assert [d for d, _ in seen] == list(range(256, 1171, 256)) + [1171]

    # catalogs hold the certified counts, one row per game
    cg, wg = load_games("cg", 6, tmp_path), load_games("wg", 6, tmp_path)
    assert (len(cg), len(wg)) == (1171, 1111)
    assert {g.shift_minimal for g in wg} <= {g.shift_minimal for g in cg}
    for games in (cg, wg):
        assert len({g.shift_minimal for g in games}) == len(games)

    # sampled games' stored vectors, found through the positions for cg
    # and the reps for wg, agree with brute-force power indices, and
    # sampled certificates reproduce their games
    def brute_force(kind, g):
        if kind == "ssi":
            return ssi_by_permutations(g)
        swings, total = pbi_swings_by_subsets(g)
        return tuple(Fraction(s, total) for s in swings)

    rng = random.Random(6)
    for kind in KINDS:
        store = _load_store(tmp_path, "cg", 6, kind)
        pos = _load_positions(tmp_path, store)
        for i in rng.sample(range(len(cg)), 12):
            assert store.vector(int(pos[i])).fractions() == brute_force(kind, cg[i])
        store = _load_store(tmp_path, "wg", 6, kind)
        for row in rng.sample(range(len(store)), 12):
            assert store.vector(row).fractions() == brute_force(kind, wg[int(store.reps[row])])
    certs = load_certificates(6, tmp_path)
    assert certs.shape == (1111, 7)
    for i in rng.sample(range(len(wg)), 50):
        assert to_explicit(certificate_game(certs[i])).table == to_explicit(wg[i]).table

    for kind, distinct in (("ssi", 536), ("pbi", 555)):
        assert len(weighted_store(6, kind, tmp_path)) == distinct

    # at 6 voters every complete game's vector is realized weighted
    reports = omega_tier(6, tmp_path)
    assert set(reports) == {(k, m) for k in ("ssi", "pbi") for m in ("l1", "linf")}
    for rep in reports.values():
        assert rep.n == 6
        assert rep.omega == 0
        assert rep.decimal == "0.0000000"
        assert rep.attaining == []


def test_pooled_build_matches_one_worker(tmp_path, cache_dir, monkeypatch):
    """workers=2 classifies every chunk in one process pool and writes the
    same bytes as the one-worker build of the session cache."""
    opened = []

    class CountedPool(futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(enumeration, "DEFAULT_CHUNK", 256)
    build_tier(6, cache_dir=tmp_path, workers=2)
    assert opened == [2]
    one_worker = pipeline._tier_paths(ensure_tier(6, cache_dir), 6)
    for key, path in pipeline._tier_paths(tmp_path, 6).items():
        assert path.read_bytes() == one_worker[key].read_bytes(), key


@pytest.mark.parametrize(
    "inject",
    ["games", "vectors"],
)
def test_big_build_mismatch_removes_partial_files(tmp_path, monkeypatch, inject):
    if inject == "games":
        monkeypatch.setitem(certified.WEIGHTED_COUNTS, 6, 1110)
    else:
        monkeypatch.setitem(certified.DISTINCT_VECTOR_COUNTS[("cg", "pbi")], 6, 1)

    with pytest.raises(CountMismatchError) as err:
        build_tier(6, cache_dir=tmp_path)
    assert err.value.got in (1111, 555)
    assert list(tmp_path.glob("*")) == []


def test_wrong_certificate_stops_the_build(tmp_path, monkeypatch):
    real = pipeline.classify_weighted_chunk

    def perturbed(n, win, lose):
        weighted, certs = real(n, win, lose)
        for row in certs:
            if row[-1] < row[0]:
                row[-1] += row[0]  # the weakest voter now wins alone
                break
        return weighted, certs

    monkeypatch.setattr(pipeline, "classify_weighted_chunk", perturbed)
    with pytest.raises(CountMismatchError, match="certificates"):
        build_tier(5, cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_aborted_build_leaves_no_file(tmp_path, monkeypatch):
    monkeypatch.setattr(enumeration, "DEFAULT_CHUNK", 256)

    class Stop(Exception):
        pass

    seen = []

    def progress(done, total):
        seen.append(done)
        if done >= 512:
            raise Stop

    with pytest.raises(Stop):
        build_tier(6, cache_dir=tmp_path, progress=progress)
    assert seen == [256, 512]
    assert list(tmp_path.iterdir()) == []


def test_concurrent_builds_share_a_directory(tmp_path):
    code = "import sys; from votekit.pipeline import build_tier; build_tier(5, sys.argv[1])"
    src = Path(pipeline.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    procs = [
        subprocess.Popen([sys.executable, "-c", code, str(tmp_path)], env=env) for _ in range(2)
    ]
    for p in procs:
        assert p.wait(timeout=120) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == tier_files(tmp_path, 5)
    pipeline._check_tier(5, tmp_path)
    assert len(read_catalog(catalog_path(tmp_path, "wg", 5))) == 117


def test_fetch_catalog_games_selected_indices(tmp_path):
    games = load_games("cg", 5, tmp_path)
    path = catalog_path(tmp_path, "cg", 5)

    picked = fetch_catalog_games(path, [116, 0, 33])
    assert set(picked) == {0, 33, 116}
    for i, g in picked.items():
        assert g == games[i]

    assert fetch_catalog_games(path, []) == {}
    # early exit once everything requested has been seen
    assert fetch_catalog_games(path, [0])[0] == games[0]


def test_fetch_catalog_games_missing_index(tmp_path):
    ensure_tier(4, tmp_path)
    path = catalog_path(tmp_path, "cg", 4)
    with pytest.raises(CatalogFormatError, match="no game at index 25"):
        fetch_catalog_games(path, [3, 25])


def test_unreadable_big_tier_raises_tier_error(tmp_path, monkeypatch):
    """At 8 voters a loader builds nothing: a missing or damaged file
    raises TierError, naming the file, with the reader's error as its
    cause."""
    monkeypatch.setattr(pipeline, "build_tier", lambda *args, **kwargs: pytest.fail("built a tier"))
    with pytest.raises(pipeline.TierError, match="cg8.cat") as err:
        tier_counts("cg", 8, cache_dir=tmp_path)
    assert isinstance(err.value.__cause__, FileNotFoundError)
    certificate_path(tmp_path, 8).touch()
    with pytest.raises(pipeline.TierError, match="wg8.cert.npy: No data left") as err:
        weighted_games(8, [0], tmp_path)
    assert isinstance(err.value.__cause__, CatalogFormatError)


@pytest.mark.parametrize("index", [-1, -117, 117, 2**40])
def test_weighted_games_refuses_positions_outside_the_catalog(cache_dir, tmp_path, monkeypatch, index):
    """A position outside the 117-game weighted 5-voter catalog raises
    ValueError naming it before any file is read, so no tier is built;
    numpy's wraparound does not answer -1 with the last game.  It is no
    CatalogFormatError, which would take the tier for damaged."""
    assert list(weighted_games(5, [116, 0], cache_dir)) == [0, 116]
    monkeypatch.setattr(pipeline, "build_tier", lambda *args, **kwargs: pytest.fail("built a tier"))
    with pytest.raises(ValueError, match=f"5-voter weighted catalog has no game at index {index}$") as err:
        weighted_games(5, [3, index], tmp_path)
    assert not isinstance(err.value, CatalogFormatError)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n", [0, 9, 12])
def test_loaders_refuse_a_voter_count_outside_the_tiers(tmp_path, n):
    """A voter count with no tier raises the ValueError that build_tier
    gives, from weighted_games, load_certificates and weighted_store
    alike, with no certified-count lookup escaping as a KeyError and no
    file written."""
    calls = [
        lambda: weighted_games(n, [0], tmp_path),
        lambda: load_certificates(n, tmp_path),
        lambda: load_certificates(n, tmp_path, [0]),
        lambda: weighted_store(n, "ssi", tmp_path),
        lambda: build_tier(n, tmp_path),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^tiers exist for 1..8 voters, got {n}$"):
            call()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n", [5, 6, 7])
@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2**20), max_size=12))
@example([])
@example([3, 3, 0, 3])
def test_certificate_rows_are_the_whole_files_rows(cache_dir, certificates, n, picks):
    """load_certificates with row indices returns those rows of the
    whole file, in the given order, repeats and the empty list included."""
    whole = certificates(n)
    rows = [i % len(whole) for i in picks]
    got = load_certificates(n, cache_dir, rows)
    assert got.dtype == np.int64 and got.shape == (len(rows), n + 1)
    assert np.array_equal(got, whole[rows])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 9), min_size=1, max_size=6).filter(any),
    st.integers(1, 60),
)
def test_stored_certificate_reproduces_a_random_weighted_game(cache_dir, weights, quota):
    g = WeightedGame(min(quota, sum(weights)), weights)
    complete = shift_minimal_winning(sort_by_desirability(g)[0])
    shapes = [h.shift_minimal for h in load_games("wg", g.n, cache_dir)]
    row = load_certificates(g.n, cache_dir)[shapes.index(complete.shift_minimal)]
    stored = WeightedGame(int(row[0]), row[1:].tolist())
    assert to_explicit(stored).table == to_explicit(complete).table
