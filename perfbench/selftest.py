"""Self-tests of the benchmark's checkers and span arithmetic.

    python3 perfbench/selftest.py

Each checker must pass a correct output and reject a corrupted one.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import time
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import speed  # noqa: E402
from checks import CheckFailed, KnownDefect  # noqa: E402
from spans import Tracer, covered, layer_times  # noqa: E402
from votekit import certified, cli  # noqa: E402


def _cli_json(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main([*argv, "--format", "json"]) == 0
    return json.loads(buf.getvalue())["results"]


def _weighted3_vectors(kind):
    """ssi/pbi rows of the eight weighted games on three voters."""
    reps = [checks.parse_weighted(t) for t in certified.WEIGHTED_3_REPRESENTATIONS]
    tables = checks.weighted_tables(3, [q for q, _ in reps], [w for _, w in reps])
    return checks.table_power(tables, 3, kind)


class CheckerTests(unittest.TestCase):
    def test_omega_rejects_a_wrong_decimal(self):
        reports = [
            {"kind": k, "metric": m, "decimal": d, "omega": d, "attaining": [{}]}
            for (n, k, m), d in certified.OMEGA_DECIMALS.items()
            if n == 7
        ]
        checks.check_omega({"reports": reports}, 7, certified)
        reports[2] = {**reports[2], "decimal": "0.0599701"}
        with self.assertRaises(CheckFailed):
            checks.check_omega({"reports": reports}, 7, certified)

    def test_listing_rejects_one_changed_weight(self):
        with tempfile.TemporaryDirectory() as cache:
            listing = _cli_json(["enumerate", "--class", "wg", "--n", "5", "--list", "--cache-dir", cache])
        checks.check_listing(listing, 5, certified)
        q, w = checks.parse_weighted(listing["games"][40]["representation"])
        w[0] = 0  # voter 1 is never null in a simple game, so it now loses swings
        listing["games"][40]["representation"] = f"[{q};{','.join(map(str, w))}]"
        with self.assertRaises(CheckFailed):
            checks.check_listing(listing, 5, certified)

    def test_tables_rejects_a_wrong_count(self):
        with tempfile.TemporaryDirectory() as cache:
            res = _cli_json(["tables", "--n", "3..5", "--cache-dir", cache])
        checks.check_tables(res, range(3, 6), certified)
        res["rows"][1]["ssi"] += 1
        with self.assertRaises(CheckFailed):
            checks.check_tables(res, range(3, 6), certified)

    def _exact(self, game, target, metric="l1"):
        q, w = checks.parse_weighted(game)
        vec = checks.weighted_power(q, w, "ssi")
        return {
            "mode": "exact-min",
            "game": game,
            "vector": {"kind": "ssi", "values": [str(v) for v in vec]},
            "distance": str(checks.distance(vec, target, metric)),
        }

    def test_exact_accepts_the_oracle_and_rejects_worse(self):
        vectors = _weighted3_vectors("ssi")
        target = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
        self.assertEqual(checks.nearest_distance(*vectors, target, "l1"), Fraction(1, 3))
        checks.check_exact(self._exact("[2;1,1,1]", target), target, "l1", vectors)
        with self.assertRaises(CheckFailed) as caught:
            checks.check_exact(self._exact("[1;1,0,0]", target), target, "l1", vectors)
        self.assertNotIsInstance(caught.exception, KnownDefect)

    def test_exact_names_the_relabelling_defect(self):
        vectors = _weighted3_vectors("ssi")
        target = [Fraction(1, 10), Fraction(1, 10), Fraction(4, 5)]
        scan = checks.nearest_distance(*vectors, target, "l1")
        best = checks.nearest_distance(*vectors, sorted(target, reverse=True), "l1")
        self.assertGreater(scan, best)
        answer = next(
            g for g in certified.WEIGHTED_3_REPRESENTATIONS
            if checks.distance(checks.weighted_power(*checks.parse_weighted(g), "ssi"), target, "l1") == scan
        )
        with self.assertRaises(KnownDefect):
            checks.check_exact(self._exact(answer, target), target, "l1", vectors)
        # the same wrong answer for a strongest-first target is no known defect
        ordered = sorted(target, reverse=True)
        worse = self._exact("[1;1,0,0]", ordered)
        with self.assertRaises(CheckFailed) as caught:
            checks.check_exact(worse, ordered, "l1", vectors)
        self.assertNotIsInstance(caught.exception, KnownDefect)

    def test_exact_rejects_a_vector_that_is_not_the_games(self):
        vectors = _weighted3_vectors("ssi")
        target = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
        res = self._exact("[2;1,1,1]", target)
        res["game"] = "[1;1,0,0]"
        with self.assertRaises(CheckFailed):
            checks.check_exact(res, target, "l1", vectors)

    def test_heuristic_floor(self):
        ref = Fraction("0.0634922")
        tol = Fraction(1, 10**4)
        checks.check_padded_floor("ssi", 9, ref - tol, ref, tol)
        with self.assertRaises(CheckFailed):
            checks.check_padded_floor("ssi", 9, ref - tol - Fraction(1, 10**7), ref, tol)

    def test_heuristic_label_and_distance(self):
        target = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
        vec = checks.weighted_power(2, [2, 1, 1], "pbi")
        res = {
            "mode": "heuristic-upper-bound", "metric": "l1", "game": "[2;2,1,1]",
            "vector": {"kind": "pbi", "values": [str(v) for v in vec]},
            "distance": str(checks.distance(vec, target, "l1")),
        }
        checks.check_heuristic(res, target)
        with self.assertRaises(CheckFailed):
            checks.check_heuristic({**res, "mode": "exact-min"}, target)
        with self.assertRaises(CheckFailed):
            checks.check_heuristic({**res, "distance": "0"}, target)

    def test_power_agrees_between_table_and_dp(self):
        for kind in ("ssi", "pbi"):
            for text in certified.WEIGHTED_3_REPRESENTATIONS + ("[84;38,27,19,16,9,9,3,0]",):
                q, w = checks.parse_weighted(text)
                n = len(w)
                nums, dens = checks.table_power(checks.weighted_tables(n, [q], [w]), n, kind)
                table = [Fraction(int(x), int(dens[0])) for x in nums[0]]
                self.assertEqual(checks.weighted_power(q, w, kind), table, (kind, text))

    def test_complete_table_matches_weighted_form(self):
        # [3;2,1,1]: voter 1 with anyone; shift-minimal winning {1,3}
        table = checks.complete_tables(3, [[0b101]])
        self.assertTrue((table == checks.weighted_tables(3, [3], [[2, 1, 1]])).all())


class SpanTests(unittest.TestCase):
    def test_covered_merges_overlaps_and_clips(self):
        self.assertEqual(covered([(1, 4), (3, 6), (8, 12)], 0, 10), 7)
        self.assertEqual(covered([], 0, 10), 0)

    def test_self_and_inclusive_times(self):
        # cli [0,10] -> a [1,4] -> a [2,3] (recursion) ; b [3,6] overlaps a; c [7,9]
        spans = [
            ["cli", 0.0, 10.0, -1, 0],
            ["a", 1.0, 4.0, 0, 0],
            ["a", 2.0, 3.0, 1, 0],
            ["b", 3.0, 6.0, 0, 0],
            ["c", 7.0, 9.0, 0, 0],
        ]
        incl, own = layer_times(spans)
        self.assertEqual(incl, {"cli": 10.0, "a": 3.0, "b": 3.0, "c": 2.0})
        self.assertEqual(own, {"cli": 3.0, "a": 3.0, "b": 3.0, "c": 2.0})

    def test_tracer_records_nested_spans_and_restores(self):
        import votekit.exactlp as exactlp
        import votekit.games as games

        original = games.solve_nonneg_geq
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(games.solve_nonneg_geq, original)
            with contextlib.redirect_stdout(io.StringIO()):
                tracer.root("cli", cli.main, ["index", "[2;1,1,1]", "--format", "json"])
            tracer.root("cli", games.is_weighted, games.parse_game("n=3; minwin={1,2},{3}"))
        finally:
            tracer.uninstall()
        self.assertIs(games.solve_nonneg_geq, original)
        self.assertIs(exactlp.solve_nonneg_geq, original)
        names = [s[0] for s in tracer.spans]
        self.assertIn("exactlp.solve", names)
        self.assertEqual(tracer.counts["exactlp.calls"], names.count("exactlp.solve"))
        for s in tracer.spans:
            self.assertLessEqual(s[1], s[2])
            if s[3] >= 0:
                parent = tracer.spans[s[3]]
                self.assertLessEqual(parent[1], s[1])
                self.assertLessEqual(s[2], parent[2])


class ScalerTests(unittest.TestCase):
    def setUp(self):
        self.real_loop = speed.reference_loop

    def tearDown(self):
        speed.reference_loop = self.real_loop

    def test_scaled_by_the_mean_loop_with_loops_taken_out(self):
        times = iter([2 * speed.REFERENCE_S, 4 * speed.REFERENCE_S])
        speed.reference_loop = lambda: next(times)
        scaler = speed.Scaler()

        def call():
            scaler._during.append(0.25)  # as if a tick ran a loop inside the call
            time.sleep(0.3)
            return "done"

        scaled, wall, result = scaler.timed(call)
        self.assertEqual(result, "done")
        self.assertAlmostEqual(wall, 0.05, delta=0.04)
        # loops 2, 0.25/REF and 4 reference-loop times: mean above 2
        mean = (2 + 0.25 / speed.REFERENCE_S + 4) / 3
        self.assertAlmostEqual(scaled, wall / mean)

    def test_failing_call_keeps_its_times(self):
        speed.reference_loop = lambda: speed.REFERENCE_S
        scaler = speed.Scaler()
        with self.assertRaises(ZeroDivisionError):
            scaler.timed(lambda: 1 / 0)
        self.assertAlmostEqual(scaler.last[0], scaler.last[1])


if __name__ == "__main__":
    unittest.main()
