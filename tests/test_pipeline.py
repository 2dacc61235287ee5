"""Cache orchestration: the streamed tier build and rebuild behaviour.

build_tier is the only builder of cg/wg catalogs for every n <= 8.  At 6
voters the whole pass (enumeration, classification, certificate checks,
vector files, count certification, atomic installs, streamed gap
queries) runs in seconds against fully known counts.
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
from hypothesis import given, settings
from hypothesis import strategies as st

from votekit import certified, enumeration, pipeline
from votekit.certified import CountMismatchError
from votekit.enumeration import CatalogFormatError, certificate_game, fetch_catalog_games, read_catalog
from votekit.games import WeightedGame, shift_minimal_winning, sort_by_desirability, to_explicit
from votekit.geometry import store_from_rows
from votekit.indices import KINDS
from votekit.pipeline import (
    _load_store,
    _load_vectors,
    _UniqueAccumulator,
    build_tier,
    catalog_path,
    certificate_path,
    ensure_tier,
    load_certificates,
    load_games,
    omega_tier,
    store_path,
    tier_counts,
    tier_present,
    vector_path,
    weighted_store,
)

from oracles import pbi_swings_by_subsets, ssi_by_permutations


def tier_files(cache, n):
    return sorted(p.name for p in pipeline._tier_paths(cache, n).values())


def test_unique_accumulator_counts_distinct_rows(monkeypatch):
    monkeypatch.setattr(pipeline, "_UNIQUE_LIMIT", 4)
    acc = _UniqueAccumulator(2)
    acc.add(np.array([[3, 4], [1, 2], [1, 2]], dtype=np.int64), 0)
    acc.add(np.array([[3, 4], [5, 6]], dtype=np.int64), 3)  # forces a compaction
    acc.add(np.array([[1, 2], [7, 8]], dtype=np.int64), 5)
    assert acc.count() == 4
    assert acc.pending == [] and acc.pending_rows == 0
    # reps stay the first indices across compactions
    assert acc.base.tolist() == [[1, 2], [3, 4], [5, 6], [7, 8]]
    assert acc.reps.tolist() == [1, 0, 4, 6]
    # count() is idempotent and later adds still merge correctly
    assert acc.count() == 4
    acc.add(np.array([[9, 9], [5, 6]], dtype=np.int64), 7)
    assert acc.count() == 5
    assert acc.reps.tolist() == [1, 0, 4, 6, 7]


@pytest.mark.parametrize("n", range(1, 8))
def test_stored_vectors_equal_the_rebuilt_store(cache_dir, n):
    """Each store file holds the rows and reps that store_from_rows makes
    of its per-game vector file."""
    cache = ensure_tier(n, cache_dir)
    for klass in ("cg", "wg"):
        for kind in KINDS:
            stored = _load_store(cache, klass, n, kind)
            rebuilt = store_from_rows(kind, n, *_load_vectors(cache, klass, n, kind))
            assert np.array_equal(stored.rows, rebuilt.rows), (klass, kind)
            assert np.array_equal(stored.reps, rebuilt.reps), (klass, kind)


def test_load_games_rejects_unknown_class(tmp_path):
    for klass in ("xx", "sg4"):
        with pytest.raises(ValueError, match="catalog class"):
            load_games(klass, 4, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_ensure_vectors_discards_wrong_kind_cache(tmp_path):
    build_tier(3, tmp_path)
    path = vector_path(tmp_path, "wg", 3, "ssi")
    path.write_bytes(vector_path(tmp_path, "wg", 3, "pbi").read_bytes())

    nums, dens = _load_vectors(ensure_tier(3, tmp_path), "wg", 3, "ssi")
    assert np.array_equal(np.load(path)[:, :3], nums)
    assert set(dens.tolist()) == {6}


def test_ensure_vectors_discards_wrong_shape_cache(tmp_path):
    """A truncated, wrong-shape or missing tier file rebuilds the tier
    when a loader that reads it runs."""
    build_tier(4, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    vec = vector_path(tmp_path, "cg", 4, "pbi")
    store = store_path(tmp_path, "cg", 4, "pbi")
    damages = [
        (vec, lambda p: p.write_bytes(p.read_bytes()[:-5])),
        (vec, lambda p: np.save(p, np.load(p)[:-1])),
        (store, lambda p: p.write_bytes(p.read_bytes()[:-5])),
        (store, lambda p: np.save(p, np.load(p)[:-1])),
        (certificate_path(tmp_path, 4), lambda p: p.unlink()),
        (catalog_path(tmp_path, "wg", 4), lambda p: p.write_bytes(p.read_bytes()[:-3])),
    ]
    readers = {  # a loader that reads each damaged file
        "cg4.pbi.npy": lambda: _load_vectors(ensure_tier(4, tmp_path), "cg", 4, "pbi")[0].tolist(),
        "cg4.pbi.store.npy": lambda: tier_counts("cg", 4, ("pbi",), tmp_path),
        "wg4.cert.npy": lambda: weighted_store(4, "ssi", tmp_path)[1].tolist(),
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
    build_tier(5, tmp_path)
    _damage_rebuilds(tmp_path, 5, vector_path(tmp_path, "cg", 5, "pbi"), _third_row(damage))


def _zero_quota(row):
    row[0] = 0


def _negative_weight(row):
    row[-1] = -1


def _increasing(row):
    row[1:] = row[1:][::-1] + np.arange(len(row) - 1)  # weakest voter first


def _common_factor(row):
    row *= 2


@pytest.mark.parametrize("damage", [_zero_quota, _negative_weight, _increasing, _common_factor])
def test_bad_certificate_row_rebuilds_the_tier(tmp_path, damage):
    build_tier(5, tmp_path)
    _damage_rebuilds(tmp_path, 5, certificate_path(tmp_path, 5), _third_row(damage))


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
    assert not tier_present(4, tmp_path)
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
    assert tier_present(6, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == tier_files(tmp_path, 6)
    assert seen[-1] == (1171, 1171)
    assert [d for d, _ in seen] == list(range(256, 1171, 256)) + [1171]

    # catalogs and vector files hold the certified counts, one row per game
    cg, wg = load_games("cg", 6, tmp_path), load_games("wg", 6, tmp_path)
    assert (len(cg), len(wg)) == (1171, 1111)
    assert {g.shift_minimal for g in wg} <= {g.shift_minimal for g in cg}
    for games in (cg, wg):
        assert len({g.shift_minimal for g in games}) == len(games)

    # sampled rows agree with brute-force power indices, and sampled
    # certificates reproduce their games
    rng = random.Random(6)
    for klass, games in (("cg", cg), ("wg", wg)):
        ssi_nums, ssi_dens = _load_vectors(tmp_path, klass, 6, "ssi")
        pbi_nums, pbi_dens = _load_vectors(tmp_path, klass, 6, "pbi")
        for i in rng.sample(range(len(games)), 12):
            g = games[i]
            got = tuple(Fraction(int(x), int(ssi_dens[i])) for x in ssi_nums[i])
            assert got == ssi_by_permutations(g)
            assert (tuple(pbi_nums[i].tolist()), int(pbi_dens[i])) == pbi_swings_by_subsets(g)
    certs = load_certificates(6, tmp_path)
    for i in rng.sample(range(len(wg)), 50):
        assert to_explicit(certificate_game(certs[i])).table == to_explicit(wg[i]).table

    for kind, distinct in (("ssi", 536), ("pbi", 555)):
        store, certs = weighted_store(6, kind, tmp_path)
        assert len(store) == distinct and certs.shape == (1111, 7)

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
    assert not tier_present(6, tmp_path)
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


def test_tier_present_requires_every_file(tmp_path):
    build_tier(6, cache_dir=tmp_path)
    assert tier_present(6, tmp_path)
    for path in pipeline._tier_paths(tmp_path, 6).values():
        saved = path.read_bytes()
        path.unlink()
        assert not tier_present(6, tmp_path)
        path.write_bytes(saved)
    assert tier_present(6, tmp_path)


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
