"""Exact vector stores, nearest-neighbour search, and gap tracking."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votekit import enumeration, geometry
from votekit.enumeration import CatalogFormatError
from votekit.geometry import (
    Metric,
    _keys,
    _reduced_rows,
    distance,
    store_from_rows,
    unique_rows,
)
from votekit.indices import PowerVector, pbi, ssi
from votekit import pipeline
from votekit.pipeline import _load_store, build_tier, ensure_tier, omega_tier, position_path, store_path

from oracles import count_distinct_rows, gap_reports_by_distinct_rows, linear_nearest, store_rows


def test_metric_parse():
    assert Metric.parse("l1") is Metric.L1
    assert Metric.parse(" LINF ") is Metric.LINF
    with pytest.raises(ValueError):
        Metric.parse("l2")


def test_distance_on_vectors_and_sequences():
    a = PowerVector("ssi", (7, 3, 1, 1), 12)
    b = PowerVector("ssi", (5, 3, 1, 1), 10)
    assert distance(a, b, Metric.L1) == Fraction(1, 6)
    assert distance(a, b, Metric.LINF) == Fraction(1, 12)
    # Raw sequences skip the kind check; that is how cross-index
    # disagreement is measured deliberately.
    assert distance(a.fractions(), b.fractions(), Metric.L1) == Fraction(1, 6)
    with pytest.raises(ValueError):
        distance(a, PowerVector("pbi", (5, 3, 1, 1), 10), Metric.L1)
    with pytest.raises(ValueError):
        distance(a, PowerVector("ssi", (1, 1), 2), Metric.L1)


def _toy_store():
    nums = np.array([[2, 1, 0], [1, 1, 1], [2, 1, 0]], dtype=np.int64)
    return store_from_rows("ssi", 3, nums, 3)


def test_store_dedups_and_keeps_first_representative():
    store = _toy_store()
    assert len(store) == 2
    i = store.index_of(PowerVector("ssi", (2, 1, 0), 3))
    assert store.reps[i] == 0  # row 2 was the duplicate
    assert store.vector(i).fractions() == (Fraction(2, 3), Fraction(1, 3), 0)
    assert store.index_of(PowerVector("ssi", (4, 2, 0), 6)) == i
    assert store.index_of(PowerVector("ssi", (1, 2, 0), 3)) is None


@pytest.mark.parametrize("kind, nums", [("pbi", (2, 1, 0)), ("ssi", (2, 1, 0, 0)), ("ssi", (2, 1))])
def test_store_refuses_vectors_of_another_kind_or_voter_count(kind, nums):
    store = _toy_store()
    vector = PowerVector(kind, nums, 3)
    with pytest.raises(ValueError, match="store of 3-voter ssi vectors"):
        store.index_of(vector)
    with pytest.raises(ValueError, match="store of 3-voter ssi vectors"):
        store.nearest(vector, Metric.L1)


def test_nearest_exact_hit_and_tie_break():
    store = _toy_store()
    res = store.nearest(PowerVector("ssi", (2, 1, 0), 3), Metric.L1)
    assert res.dist == 0 and not res.aborted
    assert res.index == store.index_of(PowerVector("ssi", (2, 1, 0), 3))
    # (1/2, 1/3, 1/6) sits 1/3 from both stored vectors (L1); ties go to
    # the lexicographically smallest vector, here (1/3, 1/3, 1/3).
    res = store.nearest(PowerVector("ssi", (3, 2, 1), 6), Metric.L1)
    assert res.dist == Fraction(1, 3)
    assert store.vector(res.index).fractions()[0] == Fraction(1, 3)


def test_nearest_stop_below_abort_is_flagged():
    store = _toy_store()
    query = PowerVector("ssi", (4, 1, 1), 6)
    res = store.nearest(query, Metric.L1, stop_below=Fraction(1, 2))
    assert res.aborted
    assert Fraction(1, 3) <= res.dist < Fraction(1, 2)
    # A bound at the exact distance never aborts: ties must stay exact.
    res = store.nearest(query, Metric.L1, stop_below=Fraction(1, 3))
    assert not res.aborted and res.dist == Fraction(1, 3)


@pytest.mark.parametrize("kind", ["ssi", "pbi"])
@pytest.mark.parametrize("metric", [Metric.L1, Metric.LINF])
def test_nearest_matches_linear_scan(stores, vectors, kind, metric):
    store = stores(5, kind)
    rows = store_rows(store)
    qnums, qdens = vectors("cg", 5, kind)
    qdens = np.broadcast_to(np.asarray(qdens, dtype=np.int64), (len(qnums),))
    for qi in range(len(qnums)):
        q = [int(x) for x in qnums[qi]]
        qd = int(qdens[qi])
        res = store.nearest(PowerVector(kind, q, qd), metric)
        dist, hits = linear_nearest(rows, q, qd, metric is Metric.L1)
        assert res.dist == dist
        assert res.index in hits


def test_count_distinct_matches_set_of_fractions(vectors):
    nums, dens = vectors("cg", 4, "pbi")
    dens = np.broadcast_to(np.asarray(dens, dtype=np.int64), (len(nums),))
    seen = {
        tuple(Fraction(int(a), int(dens[i])) for a in nums[i]) for i in range(len(nums))
    }
    assert len(unique_rows(_reduced_rows(nums, dens))[0]) == len(seen)
    assert count_distinct_rows(nums, dens) == len(seen)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_gap_is_zero_through_six_voters(cache_dir, n):
    reports = omega_tier(n, ensure_tier(n, cache_dir), kinds=("ssi",), metrics=(Metric.L1,))
    rep = reports["ssi", "l1"]
    assert rep.omega == 0 and rep.decimal == "0.0000000"
    assert rep.attaining == []


def test_gap_tracker_chunks_match_one_shot():
    store = _toy_store()
    qnums = np.array(
        [[2, 1, 0], [4, 1, 1], [5, 1, 0], [3, 3, 0]], dtype=np.int64
    )
    qdens = np.array([3, 6, 6, 6], dtype=np.int64)

    both = [Metric.L1, Metric.LINF]
    whole = gap_reports_by_distinct_rows(store, qnums, qdens, [], both)
    chunked = gap_reports_by_distinct_rows(store, qnums, qdens, [2], both)
    for metric in both:
        a, b = whole[metric], chunked[metric]
        assert a.omega == b.omega and a.attaining == b.attaining
    b = chunked[Metric.L1]
    assert b.omega == Fraction(1, 3)
    assert [x[0] for x in b.attaining] == [1, 2, 3]
    assert [x[1].key() for x in b.attaining] == [(4, 1, 1, 6), (5, 1, 0, 6), (1, 1, 0, 2)]
    assert b.nearest_vector is not None


@st.composite
def _simplex_vector(draw, den):
    """(numerators, denominator) of a 3-voter vector summing to den."""
    d = draw(den)
    a = draw(st.integers(0, d))
    b = draw(st.integers(0, d - a))
    return (a, b, d - a - b), d


@st.composite
def _gap_case(draw):
    """A small store plus queries mixing exact hits (some unreduced),
    misses and repeats, and cut points splitting the queries into chunks."""
    kind = draw(st.sampled_from(["ssi", "pbi"]))
    den = st.just(6) if kind == "ssi" else st.integers(1, 8)
    vec = _simplex_vector(den)
    stored = draw(st.lists(vec, min_size=1, max_size=8))
    hit = st.sampled_from(stored).flatmap(
        lambda v: st.integers(1, 3).map(lambda k: (tuple(k * x for x in v[0]), k * v[1]))
    )
    queries = draw(st.lists(st.one_of(hit, vec), min_size=1, max_size=16))
    queries += draw(st.lists(st.sampled_from(queries), max_size=4))
    cuts = sorted(set(draw(st.lists(st.integers(0, len(queries)), max_size=3))))
    metric = draw(st.sampled_from([Metric.L1, Metric.LINF]))
    return kind, stored, queries, cuts, metric


def _reduced(nums, den):
    g = np.gcd.reduce([*nums, den])
    return tuple(int(x) // g for x in nums) + (int(den) // g,)


@settings(max_examples=150, deadline=None)
@given(_gap_case())
def test_gap_tracker_matches_brute_force_max_min(case):
    """Bulk hits plus tree searches over the distinct query rows, bounded
    once for both metrics, give a brute-force max-min under each, whether
    the rows arrive at once or in chunks with offsets."""
    kind, stored, queries, cuts, _ = case
    store = store_from_rows(
        kind, 3, np.array([v[0] for v in stored]), np.array([v[1] for v in stored])
    )
    rows = store_rows(store)
    qnums = np.array([q for q, _ in queries], dtype=np.int64)
    qdens = np.array([d for _, d in queries], dtype=np.int64)
    both = [Metric.L1, Metric.LINF]
    for chunk_cuts in ([], cuts):
        reports = gap_reports_by_distinct_rows(store, qnums, qdens, chunk_cuts, both)
        for metric, rep in reports.items():
            dists = [linear_nearest(rows, q, d, metric is Metric.L1)[0] for q, d in queries]
            best = max(dists)
            assert rep.omega == best
            if best == 0:
                assert rep.attaining == [] and rep.nearest_vector is None
                continue
            want = [i for i, d in enumerate(dists) if d == best]
            assert [idx for idx, _ in rep.attaining] == want


def _random_vector(rng, n: int, den: int, lead: int = 0) -> tuple[tuple[int, ...], int]:
    """A uniform-ish n-entry simplex vector over den whose first entry is
    at least lead."""
    cuts = sorted(rng.randint(0, den - lead) for _ in range(n - 1))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, den - lead])]
    parts[0] += lead
    return tuple(parts), den


@st.composite
def _search_case(draw):
    """A random store of n-voter vectors, crowded into one corner or not,
    and queries: scattered ones, exact hits (some unreduced), ones far
    from every stored vector, and ones over denominators of 2**40 and
    more.  ssi-like stores sit on the n! grid, so their keys are exact;
    pbi-like ones and most queries off the grid have inexact keys."""
    n = draw(st.integers(3, 8))
    kind = draw(st.sampled_from(["ssi", "pbi"]))
    metric = draw(st.sampled_from([Metric.L1, Metric.LINF]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    corner = draw(st.booleans())

    def small_den():
        return math.factorial(n) if kind == "ssi" else rng.randint(1, 60)

    def stored():
        den = small_den()
        return _random_vector(rng, n, den, den // 2 if corner else 0)

    store = [stored() for _ in range(draw(st.integers(1, 150)))]
    # Scattered queries, on the store's grid or not.
    queries = [
        _random_vector(rng, n, rng.choice([small_den(), rng.randint(1, 60)])) for _ in range(draw(st.integers(0, 20)))
    ]
    for nums, den in rng.sample(store, min(len(store), draw(st.integers(0, 5)))):
        k = rng.randint(1, 3)
        queries.append((tuple(k * x for x in nums), k * den))
    # Far from a cornered store: nothing in the first coordinate.
    for _ in range(draw(st.integers(0, 5))):
        nums, den = _random_vector(rng, n - 1, small_den())
        queries.append(((0, *nums), den))
    for _ in range(draw(st.integers(0, 5))):
        queries.append(_random_vector(rng, n, rng.randint(2**40, 2**62)))
    if not queries:
        queries.append(stored())
    queries += rng.sample(queries, min(len(queries), 3))
    return n, kind, metric, store, queries


def _store_of(kind, n, vectors):
    return store_from_rows(
        kind, n, np.array([v[0] for v in vectors], dtype=np.int64), np.array([v[1] for v in vectors], dtype=np.int64)
    )


def _lex_smallest(rows, hits):
    return min(hits, key=lambda i: tuple(Fraction(x, rows[i][1]) for x in rows[i][0]))


@settings(max_examples=120, deadline=None)
@given(_search_case(), st.integers(2**64, 2**90))
def test_nearest_matches_linear_scan_on_random_stores(case, huge):
    """nearest equals a linear scan, ties to the lexicographically
    smallest vector, on int64 and on Python-integer denominators."""
    n, kind, metric, vectors, queries = case
    store = _store_of(kind, n, vectors)
    rows = store_rows(store)
    queries = [*queries, _random_vector(random.Random(huge), n, huge)]
    for q, d in queries:
        res = store.nearest(PowerVector(kind, q, d), metric)
        dist, hits = linear_nearest(rows, q, d, metric is Metric.L1)
        assert res.dist == dist and not res.aborted
        assert res.index == _lex_smallest(rows, hits)


def _check_gaps_against_linear_scan(store, queries, cuts):
    """Gap reports over the distinct query rows, in one chunk and in the
    chunks that cuts make, against a linear scan's max-min under each
    metric: omega, the attaining queries and the stored vector nearest
    the smallest attaining one (the rows arrive in lexicographic order,
    so that is the first to reach the gap, wherever the chunks are
    cut).  Returns
    the number of queries attaining each nonzero gap."""
    rows = store_rows(store)
    qnums = np.array([q for q, _ in queries], dtype=np.int64)
    qdens = np.array([d for _, d in queries], dtype=np.int64)
    both = [Metric.L1, Metric.LINF]
    attained = []
    for chunk_cuts in ([], cuts):
        for metric, rep in gap_reports_by_distinct_rows(store, qnums, qdens, chunk_cuts, both).items():
            l1 = metric is Metric.L1
            dists = [linear_nearest(rows, q, d, l1)[0] for q, d in queries]
            best = max(dists)
            assert rep.omega == best
            if best == 0:
                assert rep.attaining == [] and rep.nearest_vector is None
                continue
            want = [i for i, d in enumerate(dists) if d == best]
            assert [idx for idx, _ in rep.attaining] == want
            attained.append(len(want))
            worst = [int(x) for x in min(_reduced(*queries[i]) for i in want)]
            near = _lex_smallest(rows, linear_nearest(rows, worst[:-1], worst[-1], l1)[1])
            assert rep.nearest_vector.key() == rows[near][0] + (rows[near][1],)
    return attained


@settings(max_examples=120, deadline=None)
@given(_search_case(), st.integers(0, 2**16))
def test_gap_tracker_matches_linear_scan_on_random_stores(case, cut):
    """Leaf bounds under both metrics from one |difference| pass, drops,
    refutations and the leaf-bounded exact searches give a linear scan's
    max-min under each, in one chunk of distinct rows or in two."""
    n, kind, _, vectors, queries = case
    _check_gaps_against_linear_scan(_store_of(kind, n, vectors), queries, [cut % (len(queries) + 1)])


# n -> a grid denominator with a few hundred n-voter vectors on it, a
# divisor of n!, so that Shapley-Shubik keys stay exact.
_COARSE = {4: 12, 5: 10, 6: 8}


@st.composite
def _tied_case(draw):
    """A store of a few hundred vectors on a coarse grid, spread over many
    leaves, and queries on a grid a few times finer, so that many share
    the largest nearest distance; some queries have denominators of 2**40
    to 2**62, which push the products past int64."""
    n = draw(st.sampled_from(sorted(_COARSE)))
    kind = draw(st.sampled_from(["ssi", "pbi"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    coarse = _COARSE[n]
    store = [_random_vector(rng, n, coarse) for _ in range(draw(st.integers(150, 400)))]
    fine = coarse * draw(st.integers(2, 4))
    queries = [_random_vector(rng, n, fine) for _ in range(draw(st.integers(10, 60)))]
    queries += [_random_vector(rng, n, rng.randint(2**40, 2**62)) for _ in range(draw(st.sampled_from([0, 0, 1, 3])))]
    return n, kind, store, queries


@settings(max_examples=60, deadline=None)
@given(_tied_case(), st.integers(1, 3), st.integers(0, 2**16), st.sampled_from([1, 2, 5, 32]))
def test_refutation_in_small_blocks_keeps_every_tie(case, block, cut, leaf):
    """Refuting the misses a few at a time, so that the queries tied at
    the running maximum fall in different blocks and chunks, gives a
    linear scan's gap, attaining set and nearest vector, over trees as
    deep as leaves of one or two rows make them."""
    n, kind, vectors, queries = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_REFUTE_BLOCK", block)
        mp.setattr(geometry, "_LEAF_SIZE", leaf)
        attained = _check_gaps_against_linear_scan(_store_of(kind, n, vectors), queries, [cut % (len(queries) + 1)])
    assert attained


@st.composite
def _tree_case(draw):
    """A leaf size and int key rows for a tree over them: row counts of
    1, the leaf size, one more and one more than twice it (1, 32, 33 and
    65 at a leaf size of 32) or any up to 300, keys of few distinct
    values, and at times a block of identical rows."""
    leaf = draw(st.sampled_from([2, 5, 32]))
    count = draw(st.sampled_from([1, leaf, leaf + 1, 2 * leaf + 1]) | st.integers(1, 300))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.sampled_from([0, 1, 3, 1000]))
    dims = draw(st.integers(1, 4))
    keys = np.array([[rng.randint(0, top) for _ in range(dims)] for _ in range(count)], dtype=np.int64)
    a = draw(st.integers(0, count - 1))
    keys[a : draw(st.integers(a, count))] = keys[a]
    return leaf, keys


@settings(max_examples=150, deadline=None)
@given(_tree_case())
def test_tree_layout(case):
    """The heap-ordered tree over key rows: perm is a permutation, leaf l
    holds perm[(l * count) >> depth : ((l + 1) * count) >> depth], from 1
    to _LEAF_SIZE rows, at the least such depth, each leaf's box holds its
    rows' keys, and on each split node's axis its left rows' keys are
    <= its cut and its right rows' keys >= it.  A stored key equal to a
    cut may sit on the left while the descent sends it right, so where a
    stored key descends is not asserted."""
    leaf, keys = case
    count, dims = keys.shape
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_LEAF_SIZE", leaf)
        # Denominators of 1 on a grid of scale 1: the keys are the rows.
        tree = geometry._Tree(np.column_stack([keys, np.ones(count, dtype=np.int64)]), dims, 1)
    assert tree.slack == 0 and tree.depth == ((count - 1) // leaf).bit_length()
    assert np.array_equal(np.sort(tree.perm), np.arange(count))
    assert np.array_equal(tree.rows[:, :dims], keys[tree.perm])
    bounds = (np.arange(2**tree.depth + 1) * count) >> tree.depth
    assert np.array_equal(tree.start, bounds[:-1]) and np.array_equal(tree.stop, bounds[1:])
    assert 1 <= (tree.stop - tree.start).min() and (tree.stop - tree.start).max() <= leaf
    for l, (a, b) in enumerate(zip(tree.start, tree.stop)):
        held = keys[tree.perm[a:b]]
        assert np.array_equal(tree.lo[:, l], held.min(axis=0)) and np.array_equal(tree.hi[:, l], held.max(axis=0))
    assert len(tree.axis) == len(tree.cut) == 2**tree.depth - 1
    for i, (axis, cut) in enumerate(zip(tree.axis.tolist(), tree.cut.tolist())):
        d = (i + 1).bit_length() - 1
        a, m, b = (np.arange(3) + 2 * (i - 2**d + 1)) * count >> (d + 1)
        assert (keys[tree.perm[a:m], axis] <= cut).all() and (keys[tree.perm[m:b], axis] >= cut).all()


def test_nearest_builds_no_tree(cache_dir):
    """The exact inverse's nearest scans the rows as read: neither the
    k-d tree nor the rows in its order are built."""
    store = _load_store(ensure_tier(5, cache_dir), "wg", 5, "ssi")
    for nums, den in [((1, 1, 1, 1, 1), 5), ((60, 30, 20, 10, 0), 120)]:
        assert store.nearest(PowerVector("ssi", nums, den), Metric.L1).dist is not None
    assert "_leaves" not in vars(store) and "_held" not in vars(store)


@settings(max_examples=120, deadline=None)
@given(_search_case())
def test_leaf_search_bounded_by_the_nearest_distance_finds_it(case):
    """Given the exact nearest distance as its bound, the leaf search
    prunes no leaf that holds a nearest vector, however the keys round."""
    n, kind, metric, vectors, queries = case
    store = _store_of(kind, n, vectors)
    rows = store_rows(store)
    for nums, den in queries:
        g = math.gcd(den, *nums)
        q = np.array([x // g for x in (*nums, den)], dtype=object)
        keys, inexact = _keys(q[None, :], n, store.scale)
        dist, hits = linear_nearest(rows, nums, den, metric is Metric.L1)
        bound = (dist.numerator, dist.denominator)
        tied, num, dist_den = store._search(q, keys[0], bool(inexact[0]), bound, metric is Metric.L1)
        assert Fraction(num, dist_den) == dist and sorted(tied) == hits


@pytest.mark.parametrize("kind", ["ssi", "pbi"])
@pytest.mark.parametrize("n", [5, 6, 7])
def test_unique_rows_matches_numpy_unique(vectors, n, kind):
    rows = _reduced_rows(*vectors("wg", n, kind))
    uniq, first, inverse = unique_rows(rows)
    want, want_inverse = np.unique(rows, axis=0, return_inverse=True)
    reps = np.full(len(want), len(rows), dtype=np.int64)
    np.minimum.at(reps, want_inverse.ravel(), np.arange(len(rows)))
    assert np.array_equal(uniq, want)
    assert np.array_equal(first, reps)
    assert np.array_equal(inverse, want_inverse.ravel())


def test_vector_io_round_trip(tmp_path, catalogs):
    """Store and position files are plain .npy matrices: each distinct
    vector's reduced numerators, denominator and first catalog index, and
    each complete game's row of the store, in catalog order."""
    build_tier(4, tmp_path)
    for kind in ("ssi", "pbi"):
        index = ssi if kind == "ssi" else pbi
        stores = {klass: np.load(store_path(tmp_path, klass, 4, kind)) for klass in ("cg", "wg")}
        pos = np.load(position_path(tmp_path, 4, kind))
        games = catalogs("cg", 4)
        assert stores["cg"].dtype == pos.dtype == np.int64 and pos.shape == (len(games), 1)
        for g, (row,) in zip(games, pos):
            assert PowerVector(kind, stores["cg"][row, :4], stores["cg"][row, 4]) == index(g)
        games = catalogs("wg", 4)
        for row in stores["wg"]:
            assert row.dtype == np.int64 and len(row) == 6
            assert PowerVector(kind, row[:4], row[4]) == index(games[row[5]])


def test_vector_writer_streams_like_one_shot(tmp_path, monkeypatch):
    """Rows written block by block under a header written up front give
    the same bytes as saving the whole matrix at once."""
    with monkeypatch.context() as mp:
        mp.setattr(enumeration, "DEFAULT_CHUNK", 16)
        mp.setattr(pipeline, "_SCAN", 8)
        build_tier(5, tmp_path / "streamed")
    build_tier(5, tmp_path / "whole")
    streamed = sorted((tmp_path / "streamed").glob("*.npy"))
    assert len(streamed) == 7  # four stores, two position files, the certificates
    for path in streamed:
        np.save(tmp_path / "one.npy", np.load(path))
        assert path.read_bytes() == (tmp_path / "one.npy").read_bytes()
        assert path.read_bytes() == (tmp_path / "whole" / path.name).read_bytes()


def test_vector_io_detects_corruption(tmp_path):
    build_tier(3, tmp_path)
    path = store_path(tmp_path, "cg", 3, "ssi")
    good = path.read_bytes()
    for bad in (b"garbage", good[:-3], b""):
        path.write_bytes(bad)
        with pytest.raises(CatalogFormatError):
            _load_store(tmp_path, "cg", 3, "ssi")
    rows = np.load(store_path(tmp_path, "cg", 3, "pbi"))
    np.save(path, rows)  # right shape, but pbi rows: a denominator 5, no divisor of 3! = 6
    with pytest.raises(CatalogFormatError, match="not distinct reduced ssi vectors"):
        _load_store(tmp_path, "cg", 3, "ssi")
    path.write_bytes(good)
    store = _load_store(tmp_path, "cg", 3, "ssi")
    assert store.rows.shape == (4, 4) and all(6 % d == 0 for d in store.rows[:, 3].tolist())


def test_weighted_store_from_catalog(catalogs, vectors, stores):
    store = stores(4, "ssi")
    assert len(store) == count_distinct_rows(*vectors("wg", 4, "ssi"))
    for g in catalogs("wg", 4)[::5]:
        v = ssi(g)
        i = store.index_of(v)
        assert i is not None
        assert store.vector(i) == v
