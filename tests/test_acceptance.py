"""The nine headline checks this package promises.

One test per criterion, each leaving a single PASS/FAIL line in the
terminal summary (see conftest).  Tolerances are pinned next to the
assertions: worked examples and catalog counts are exact, gap values are
compared as 7-place decimal renderings (stricter than the 1e-7 band they
stand in for), padded-workflow entries to 4 significant digits, and the
n >= 9 heuristic to the stated reference tolerances with a hard floor
and a soft warning, since that search is an upper bound, not a
certificate.

Criterion 6 is the n = 8 tier, minutes and about 3.2 GB, and only runs when
VOTEKIT_LONG_RUNNING=1; it reuses an existing n = 8 cache when the
environment pointed at one before the suite isolated itself.
"""

import time
import tracemalloc
import warnings
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from votekit import pipeline
from votekit.certified import (
    COMPLETE_COUNTS,
    DISTINCT_VECTOR_COUNTS,
    OMEGA_DECIMALS,
    OMEGA_WITNESSES,
    PADDED_BEST_DISTANCE_DECIMAL,
    PADDED_BEST_WEIGHTED,
    PADDED_EXTREMAL_BASE,
    PADDED_EXTREMAL_SSI_4SIG,
    PADDED_SEARCH_REFERENCE,
    SIMPLE_4_NONWEIGHTED_MINWIN,
    SIMPLE_4_TOTAL,
    SIMPLE_4_WEIGHTED,
    WEIGHTED_3_REPRESENTATIONS,
    WEIGHTED_COUNTS,
)
from votekit.enumeration import certificate_game, enumerate_simple4
from votekit.games import (
    add_null_voters,
    canonical_table,
    coalition_mask,
    game_to_text,
    parse_game,
    to_explicit,
)
from votekit.geometry import Metric, distance
from votekit.indices import PowerVector, decimal_str, pbi, pbi_dp, ssi, ssi_dp, swing_counts_dp
from votekit.inverse import InverseMode, Target, inverse_exact, padded_target_search
from votekit.pipeline import ensure_tier, omega_tier

from oracles import (
    count_distinct_rows,
    linear_nearest,
    null_voters_by_table,
    random_boolcombo,
    store_rows,
    swap_symmetric,
)


@pytest.fixture
def criterion(request):
    """Record one summary line per criterion, pass or fail."""

    @contextmanager
    def check(name: str):
        info = {"detail": ""}
        t0 = time.perf_counter()
        try:
            yield info
        except BaseException as exc:
            request.config.acceptance_lines.append(f"criterion {name}: FAIL ({exc})")
            raise
        elapsed = time.perf_counter() - t0
        tail = f"{info['detail']}; " if info["detail"] else ""
        request.config.acceptance_lines.append(
            f"criterion {name}: PASS ({tail}{elapsed:.2f}s)"
        )

    return check


@pytest.fixture(scope="session")
def omega7(cache_dir):
    """All four gap reports at n = 7, keyed (kind, metric name), shared by
    criteria 5 and 9.

    Lazy so the first criterion that needs them pays for the computation
    inside its own timed block.
    """
    out = {}

    def get():
        if not out:
            out.update(omega_tier(7, ensure_tier(7, cache_dir)))
        return out

    return get


def _witness_masks(families) -> tuple:
    return tuple(sorted(coalition_mask(f) for f in families))


def test_criterion_1_worked_examples(criterion):
    """SSI/PBI of [3;3,2,1,1] and the distance between them, exactly."""
    with criterion("1 worked examples") as info:
        g = parse_game("[3;3,2,1,1]")
        s, b = ssi(g), pbi(g)
        assert s.fractions() == (Fraction(7, 12), Fraction(1, 4), Fraction(1, 12), Fraction(1, 12))
        assert b.fractions() == (Fraction(1, 2), Fraction(3, 10), Fraction(1, 10), Fraction(1, 10))
        assert distance(s.fractions(), b.fractions(), Metric.L1) == Fraction(1, 6)
        assert distance(s.fractions(), b.fractions(), Metric.LINF) == Fraction(1, 12)
        info["detail"] = "exact"
    # runtime budget: < 1 s


def test_criterion_2_small_catalogs(criterion, catalogs, certificates):
    """#WG(3) = 8 with the stated list; SG(4) = 28/25/3 with the stated
    non-weighted minimal-winning families up to isomorphism."""
    with criterion("2 small catalogs") as info:
        t0 = time.perf_counter()
        wg3 = catalogs("wg", 3)
        assert len(wg3) == 8
        reps = {game_to_text(certificate_game(row)) for row in certificates(3)}
        assert reps == set(WEIGHTED_3_REPRESENTATIONS)

        sg4 = enumerate_simple4()
        assert len(sg4) == SIMPLE_4_TOTAL == 28
        assert sum(w is not None for _, w in sg4) == SIMPLE_4_WEIGHTED == 25
        got = {canonical_table(g).table for g, w in sg4 if w is None}
        want = set()
        for fams in SIMPLE_4_NONWEIGHTED_MINWIN:
            sets = ",".join("{" + ",".join(map(str, f)) + "}" for f in fams)
            want.add(canonical_table(parse_game(f"n=4; minwin={sets}")).table)
        assert got == want and len(got) == 3
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"{elapsed:.2f}s exceeds the 1 s budget"
        info["detail"] = "8 weighted(3); 28/25/3 simple(4)"


def test_criterion_3_table_one(criterion, vectors):
    """Distinct weighted-game power vectors for n = 3..7, both indices,
    recounted by the batch kernels from the certificates' winning tables,
    apart from the tier's store files."""
    with criterion("3 table of weighted vectors") as info:
        t0 = time.perf_counter()
        got = {}
        for kind in ("ssi", "pbi"):
            for n in range(3, 8):
                got[(kind, n)] = count_distinct_rows(*vectors("wg", n, kind))
                assert got[(kind, n)] == DISTINCT_VECTOR_COUNTS[("wg", kind)][n]
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"{elapsed:.1f}s exceeds the 2 min budget"
        row = ",".join(str(got[("ssi", n)]) for n in range(3, 8))
        info["detail"] = f"ssi {row}; pbi matches"


def test_criterion_4_table_two(criterion, catalogs, vectors, stores):
    """Distinct complete-game vectors for n = 3..7 (recounted by the
    batch kernels from the enumeration, apart from the tier's store
    files), the n = 6 class counts, and the coincidence
    of both tables through n = 6 down to the level of individual
    non-weighted vectors."""
    with criterion("4 table of complete vectors") as info:
        t0 = time.perf_counter()
        for kind in ("ssi", "pbi"):
            for n in range(3, 8):
                got = count_distinct_rows(*vectors("cg", n, kind))
                assert got == DISTINCT_VECTOR_COUNTS[("cg", kind)][n]
        assert len(catalogs("cg", 6)) == COMPLETE_COUNTS[6] == 1171
        assert len(catalogs("wg", 6)) == WEIGHTED_COUNTS[6] == 1111

        # The tables agree entry-wise for n <= 6 ...
        for kind in ("ssi", "pbi"):
            for n in range(3, 7):
                assert DISTINCT_VECTOR_COUNTS[("cg", kind)][n] == DISTINCT_VECTOR_COUNTS[("wg", kind)][n]

        # ... because every non-weighted complete game's vector is also
        # hit by some weighted game.  Check all 60 at n = 6, both kinds.
        cg6 = catalogs("cg", 6)
        weighted = {g.shift_minimal for g in catalogs("wg", 6)}
        nonweighted = [i for i, g in enumerate(cg6) if g.shift_minimal not in weighted]
        assert len(nonweighted) == 1171 - 1111 == 60
        for kind in ("ssi", "pbi"):
            nums, dens = vectors("cg", 6, kind)
            dens = np.broadcast_to(np.asarray(dens, dtype=np.int64), (len(nums),))
            store, _ = stores(6, kind)
            for i in nonweighted:
                v = PowerVector(kind, [int(x) for x in nums[i]], int(dens[i]))
                key = v.key()
                assert store.index_of(key[:-1], key[-1]) is not None
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"{elapsed:.1f}s exceeds the 5 min budget"
        info["detail"] = "n=3..7 exact; 60/60 non-weighted vectors covered"


def test_criterion_5_gaps_at_seven(criterion, omega7):
    """The four worst-case gaps at n = 7 and both named witnesses."""
    with criterion("5 gaps at n=7") as info:
        t0 = time.perf_counter()
        reports = omega7()
        decimals = {}
        for (kind, metric), rep in reports.items():
            decimals[(kind, metric)] = rep.decimal
            assert rep.decimal == OMEGA_DECIMALS[(7, kind, metric)]
        for (n, kind, metric), fams in OMEGA_WITNESSES.items():
            rep = reports[(kind, metric)]
            attained = {g.shift_minimal for _, g, _ in rep.attaining}
            assert _witness_masks(fams) in attained
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0, f"{elapsed:.1f}s exceeds the 10 min budget"
        info["detail"] = "; ".join(
            f"{k}/{m} {d}" for (k, m), d in sorted(decimals.items())
        )


# Every field of the four n = 7 gap reports, as the per-query k-d tree
# search computed them: omega, (catalog index, vector) of every attaining
# game, the worst vector, and the nearest weighted vector with its
# catalog index and game.  Vectors are (numerators..., denominator).
PINNED_GAPS_AT_SEVEN = {
    ("ssi", "l1"): {
        "omega": Fraction("1/15"),
        "attaining": {
            (211, 78, 43, 43, 15, 15, 15, 420): (1943, 43789),
        },
        "worst": (211, 78, 43, 43, 15, 15, 15, 420),
        "nearest": (2515, (197, 85, 50, 43, 15, 15, 15, 420), "[13;6,4,3,2,1,1,1]"),
    },
    ("ssi", "linf"): {
        "omega": Fraction("1/60"),
        "attaining": {
            (208, 75, 47, 47, 19, 12, 12, 420): (1580, 43795),
            (208, 82, 40, 40, 19, 19, 12, 420): (1903, 43802),
            (211, 78, 43, 43, 15, 15, 15, 420): (1943, 43789),
            (151, 88, 53, 53, 25, 25, 25, 420): (1944, 42617),
            (125, 69, 69, 55, 34, 34, 34, 420): (2708, 33594),
            (107, 86, 86, 37, 37, 37, 30, 420): (2730, 33182),
            (113, 78, 78, 43, 36, 36, 36, 420): (2740, 32411),
            (128, 65, 65, 51, 37, 37, 37, 420): (2816, 33517),
            (129, 73, 73, 52, 31, 31, 31, 420): (4695, 33593),
            (20, 13, 13, 6, 6, 6, 6, 70): (4820, 32263),
            (8, 6, 5, 5, 2, 2, 2, 30): (7482, 31883),
            (51, 37, 37, 37, 16, 16, 16, 210): (7483, 23694),
            (14, 11, 11, 11, 5, 4, 4, 60): (7514, 23684),
            (120, 71, 71, 50, 36, 36, 36, 420): (7999, 23497),
            (117, 89, 89, 61, 40, 12, 12, 420): (11443, 34599),
            (158, 81, 53, 53, 25, 25, 25, 420): (13188, 35948),
            (144, 81, 81, 32, 32, 32, 18, 420): (14816, 32239),
            (132, 83, 83, 34, 34, 34, 20, 420): (18134, 22067),
            (135, 79, 79, 37, 37, 37, 16, 420): (18141, 21740),
            (71, 36, 36, 22, 22, 15, 8, 210): (18517, 21664),
            (24, 13, 7, 7, 3, 3, 3, 60): (24421, 35947),
        },
        "worst": (8, 6, 5, 5, 2, 2, 2, 30),
        "nearest": (5897, (15, 12, 10, 10, 5, 5, 3, 60), "[20;8,7,6,6,3,3,2]"),
    },
    ("pbi", "l1"): {
        "omega": Fraction("40/667"),
        "attaining": {
            (19, 11, 11, 5, 5, 5, 2, 58): (18141, 21740),
        },
        "worst": (19, 11, 11, 5, 5, 5, 2, 58),
        "nearest": (2663, (15, 9, 8, 5, 4, 4, 1, 46), "[24;11,7,6,4,3,3,1]"),
    },
    ("pbi", "linf"): {
        "omega": Fraction("2/115"),
        "attaining": {
            (37, 23, 23, 9, 9, 9, 5, 115): (18134, 22067),
        },
        "worst": (37, 23, 23, 9, 9, 9, 5, 115),
        "nearest": (8175, (35, 25, 23, 11, 11, 7, 3, 115), "[20;10,8,7,4,4,2,1]"),
    },
}


def test_gap_reports_at_seven_are_pinned(omega7):
    """The n = 7 reports, field by field, so a slip in the search's tie
    rules (which game attains, which weighted vector is nearest) fails
    even where omega itself is unchanged."""
    reports = omega7()
    assert set(reports) == set(PINNED_GAPS_AT_SEVEN)
    for key, want in PINNED_GAPS_AT_SEVEN.items():
        rep = reports[key]
        assert rep.omega == want["omega"], key
        attaining = sorted((idx, vec) for vec, indices in want["attaining"].items() for idx in indices)
        assert [(idx, vec.key()) for idx, _, vec in rep.attaining] == attaining, key
        assert rep.worst_vector.key() == want["worst"], key
        index, vector, game = want["nearest"]
        assert (rep.nearest_index, rep.nearest_vector.key()) == (index, vector), key
        assert rep.nearest_game == parse_game(game), key


def test_gap_reports_do_not_depend_on_the_scan_block(cache_dir, monkeypatch):
    """The pinned n = 7 reports, field by field, from 4,096-row blocks, in
    which the stores and the position files span several blocks each.  Store rows arrive in lexicographic order, so the first block to
    reach the gap holds the smallest attaining vector, as one block does."""
    cache = ensure_tier(7, cache_dir)
    monkeypatch.setattr(pipeline, "_SCAN", 4096)
    reports = omega_tier(7, cache)
    test_gap_reports_at_seven_are_pinned(lambda: reports)


def test_warm_gap_reports_at_seven_stay_small(cache_dir):
    """A warm omega_tier(7) allocates at most 12 MiB at its peak, as
    tracemalloc counts it: the search streams blocks of the stores, and
    the attaining games are found a block of positions at a time.
    Resident memory moves by a few MB with heap layout alone, so it could
    not show a regression of this size."""
    cache = ensure_tier(7, cache_dir)
    omega_tier(7, cache)
    tracemalloc.start()
    try:
        omega_tier(7, cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20, f"peak {peak / 2**20:.1f} MiB exceeds 12 MiB"


@pytest.mark.long_running
def test_criterion_6_gaps_at_eight(criterion, cache_dir):
    """n = 8: the four gaps, both distinct-vector counts per class, and
    the one-null-voter shape of every extremal game."""
    import os
    from pathlib import Path

    from votekit.pipeline import build_big_tables, catalog_path, ensure_tier, weighted_store

    with criterion("6 gaps at n=8") as info:
        # Prefer a cache that already holds the n = 8 tier: the isolated
        # session cache, else whatever VOTEKIT_CACHE pointed at before
        # isolation (building fresh takes about 280 s on two cores).
        candidates = [Path(cache_dir)]
        outside = os.environ.get("VOTEKIT_CACHE_PREISOLATION")
        if outside:
            candidates.append(Path(outside))
        big = None
        for c in candidates:
            try:
                ensure_tier(8, c)
                big = c
                break
            except Exception:
                continue
        if big is None:
            big = Path(cache_dir)
            counts = build_big_tables(cache_dir=big)
            # The build self-certifies; re-assert the four table entries.
            for key, expect in (
                ("wg.ssi", 1364907),
                ("wg.pbi", 1366032),
                ("cg.ssi", 6314952),
                ("cg.pbi", 4616157),
            ):
                assert counts[key] == expect

        from votekit.enumeration import read_catalog_header

        for klass, expect in (("cg", 16175188), ("wg", 2730164)):
            assert read_catalog_header(catalog_path(big, klass, 8)) == (klass, 8, expect)

        for kind in ("ssi", "pbi"):
            store, _ = weighted_store(8, kind, big)
            assert len(store) == DISTINCT_VECTOR_COUNTS[("wg", kind)][8]

        reports = omega_tier(8, big, kinds=("ssi", "pbi"), metrics=(Metric.L1, Metric.LINF))
        for (kind, metric), rep in reports.items():
            assert rep.decimal == OMEGA_DECIMALS[(8, kind, metric)]
            assert rep.attaining, "a positive gap needs attaining games"
            for _, game, vec in rep.attaining:
                zeros = sum(1 for x in vec.nums if x == 0)
                assert zeros == 1, "every extremal n=8 game has exactly one null voter"
        info["detail"] = "; ".join(
            f"{k}/{m} {rep.decimal}" for (k, m), rep in sorted(reports.items())
        )


def test_criterion_7_padding_workflow(criterion):
    """The 7-voter extremal game padded to 8 voters: its exact index to 4
    significant digits, and the stated best weighted approximation at L1
    distance 0.0666667 (+- 1e-7)."""
    with criterion("7 padding workflow") as info:
        sets = ",".join("{" + ",".join(map(str, f)) + "}" for f in PADDED_EXTREMAL_BASE)
        base = parse_game(f"n=7; shiftminwin={sets}")
        padded = add_null_voters(base, 1)
        vec = ssi(padded)
        got = tuple(f"{float(x):.4g}" for x in vec.fractions())
        assert got == PADDED_EXTREMAL_SSI_4SIG

        best = parse_game(PADDED_BEST_WEIGHTED)
        d = distance(ssi_dp(best).fractions(), vec.fractions(), Metric.L1)
        assert decimal_str(d) == PADDED_BEST_DISTANCE_DECIMAL
        assert abs(d - Fraction(666667, 10**7)) <= Fraction(1, 10**7)
        info["detail"] = f"4-sig match; stated game at {decimal_str(d)}"


def test_criterion_8_property_suites(criterion, catalogs, vectors, stores, certificates):
    """Always-on property checks standing in for the results this
    artifact cannot certify: index axioms over all complete games n <= 6,
    DP-vs-direct equivalence, nearest-vs-reference-scan equivalence, and text
    round-trips through n = 7."""
    with criterion("8 property suites") as info:
        # Index axioms on every complete game with 3..6 voters.
        checked = 0
        for n in range(3, 7):
            cat = catalogs("cg", n)
            data = {k: vectors("cg", n, k) for k in ("ssi", "pbi")}
            for kind in ("ssi", "pbi"):
                nums, dens = data[kind]
                dens = np.broadcast_to(np.asarray(dens, dtype=np.int64), (len(nums),))
                assert np.all(nums.sum(axis=1) == dens), "normalization"
                for i, g in enumerate(cat):
                    row = nums[i]
                    nulls = null_voters_by_table(g)
                    assert all(row[v] == 0 for v in nulls), "null voters get zero"
                    assert all(
                        row[v] > 0 for v in range(n) if v not in nulls
                    ), "non-null voters get positive power"
                    # Strongest-first ordering makes monotonicity a sort check.
                    assert all(row[j] >= row[j + 1] for j in range(n - 1)), "desirability-monotone"
                    for j in range(n - 1):
                        if swap_symmetric(g, j, j + 1):
                            assert row[j] == row[j + 1], "symmetric voters tie"
                    checked += 1

        # DP against direct enumeration: all weighted games at n = 6 ...
        for row in certificates(6):
            rep = certificate_game(row)
            assert ssi_dp(rep) == ssi(rep)
            assert pbi_dp(rep) == pbi(rep)
        # ... and 1000 seeded random and/or combinations.
        import random

        rng = random.Random(0)
        for _ in range(1000):
            g = random_boolcombo(rng, rng.randint(3, 6))
            assert ssi_dp(g) == ssi(g)
            assert pbi_dp(g) == pbi(g)

        # VectorStore.nearest equals the reference linear scan on every n = 6 query.
        for kind in ("ssi", "pbi"):
            store, _ = stores(6, kind)
            rows = store_rows(store)
            qnums, qdens = vectors("cg", 6, kind)
            qdens = np.broadcast_to(np.asarray(qdens, dtype=np.int64), (len(qnums),))
            for metric in (Metric.L1, Metric.LINF):
                for qi in range(len(qnums)):
                    q = [int(x) for x in qnums[qi]]
                    qd = int(qdens[qi])
                    res = store.nearest(q, qd, metric)
                    dist, hits = linear_nearest(rows, q, qd, metric is Metric.L1)
                    assert res.dist == dist and res.index in hits

        # Shift-minimal text round-trip over every catalogued game n <= 7.
        trips = 0
        for n in range(3, 8):
            for g in catalogs("cg", n):
                assert parse_game(game_to_text(g)) == g
                trips += 1
        info["detail"] = f"axioms on {checked} game/kind pairs; {trips} round-trips"


def test_criterion_9_heuristic_references(criterion, omega7):
    """Padding the n = 7 extremal games to n = 9..11 and searching with
    the default budget: never beat the certified reference (hard floor),
    warn softly when the window is missed, and flag the mode."""
    with criterion("9 heuristic references") as info:
        outcomes = []
        misses = []
        for kind, tol in (("ssi", Fraction(1, 10**4)), ("pbi", Fraction(5, 10**5))):
            bases = [g for _, g, _ in omega7()[(kind, "l1")].attaining]
            assert bases, "the n=7 gap must have attaining games"
            for n in (9, 10, 11):
                rep = padded_target_search(bases, n, Metric.L1, kind)
                assert all(r.mode is InverseMode.HEURISTIC_UPPER_BOUND for r in rep.results)
                ref = Fraction(PADDED_SEARCH_REFERENCE[(kind, "l1")][n])
                assert rep.bound >= ref - tol, (
                    f"{kind} n={n}: heuristic bound {rep.decimal} undercuts the "
                    f"certified reference {decimal_str(ref)}"
                )
                hit = rep.bound <= ref + tol
                outcomes.append(f"{kind}/{n} {rep.decimal}{'' if hit else '!'}")
                if not hit:
                    misses.append(
                        f"{kind} n={n}: reached {rep.decimal}, reference "
                        f"{decimal_str(ref)} (uncertified heuristic, soft miss)"
                    )
        for msg in misses:
            warnings.warn(msg)
        info["detail"] = f"{len(outcomes) - len(misses)}/{len(outcomes)} within tolerance; " + ", ".join(outcomes)
