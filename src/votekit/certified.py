"""Certified reference values.

Known exact results that the library must reproduce: enumeration counts,
counts of distinct power vectors, worst-case approximation gaps, and a few
named witness games.  Enumeration and the CLI self-check against these and
refuse to proceed on a mismatch (see CountMismatchError), so a silently
wrong catalog can never feed later stages.

Counts for n = 9 are recorded for documentation only; they are far beyond
the enumeration range of this package.
"""

from __future__ import annotations

__all__ = [
    "COMPLETE_COUNTS",
    "WEIGHTED_COUNTS",
    "GAME_COUNTS",
    "DOCUMENTED_COUNTS",
    "DISTINCT_VECTOR_COUNTS",
    "WEIGHTED_3_REPRESENTATIONS",
    "SIMPLE_4_TOTAL",
    "SIMPLE_4_WEIGHTED",
    "SIMPLE_4_NONWEIGHTED_MINWIN",
    "OMEGA_DECIMALS",
    "OMEGA_WITNESSES",
    "PADDED_EXTREMAL_BASE",
    "PADDED_EXTREMAL_SSI_4SIG",
    "PADDED_BEST_WEIGHTED",
    "PADDED_BEST_DISTANCE_DECIMAL",
    "PADDED_SEARCH_REFERENCE",
    "CountMismatchError",
]


class CountMismatchError(RuntimeError):
    """An enumeration disagreed with a certified count.

    This is a hard stop: every result downstream of the catalog would be
    built on a wrong game set.
    """

    def __init__(self, what: str, expected: int, got: int):
        super().__init__(f"{what}: expected {expected}, enumerated {got}")
        self.what = what
        self.expected = expected
        self.got = got


# Numbers of complete simple games and weighted games up to isomorphism.
COMPLETE_COUNTS = {1: 1, 2: 3, 3: 8, 4: 25, 5: 117, 6: 1171, 7: 44313, 8: 16175188}
WEIGHTED_COUNTS = {1: 1, 2: 3, 3: 8, 4: 25, 5: 117, 6: 1111, 7: 29373, 8: 2730164}

# Documentation only: one step beyond what exhaustive search can cover here.
DOCUMENTED_COUNTS = {
    ("cg", 9): 284432730174,
    ("wg", 9): 993061482,
}

# Numbers of distinct power vectors attained by each class.
DISTINCT_VECTOR_COUNTS = {
    ("wg", "ssi"): {3: 4, 4: 11, 5: 53, 6: 536, 7: 14188, 8: 1364907},
    ("wg", "pbi"): {3: 4, 4: 12, 5: 57, 6: 555, 7: 14720, 8: 1366032},
    ("cg", "ssi"): {3: 4, 4: 11, 5: 53, 6: 536, 7: 17973, 8: 6314952},
    ("cg", "pbi"): {3: 4, 4: 12, 5: 57, 6: 555, 7: 18600, 8: 4616157},
}

# The eight weighted games on three voters, in minimal integer form.
WEIGHTED_3_REPRESENTATIONS = (
    "[1;1,0,0]",
    "[1;1,1,0]",
    "[2;1,1,0]",
    "[1;1,1,1]",
    "[2;1,1,1]",
    "[3;1,1,1]",
    "[2;2,1,1]",
    "[3;2,1,1]",
)

# Simple games on four voters: 28 up to isomorphism, 25 of them weighted.
SIMPLE_4_TOTAL = 28
SIMPLE_4_WEIGHTED = 25
SIMPLE_4_NONWEIGHTED_MINWIN = (
    ((1, 2), (3, 4)),
    ((1, 2), (1, 4), (3, 4)),
    ((1, 2), (1, 4), (2, 3), (3, 4)),
)

# Game counts by catalog class and voter count: the one lookup behind
# every certified-count check.
GAME_COUNTS = {
    "cg": COMPLETE_COUNTS,
    "wg": WEIGHTED_COUNTS,
    "sg4": {4: SIMPLE_4_TOTAL},
}

# Worst-case gap between a complete game's power vector and its best
# weighted approximation, as 7-place decimal renderings of exact rationals.
# For n <= 6 the gap is zero: every attained vector is attained by a
# weighted game.
OMEGA_DECIMALS = {
    (7, "ssi", "l1"): "0.0666667",
    (7, "ssi", "linf"): "0.0166667",
    (7, "pbi", "l1"): "0.0599700",
    (7, "pbi", "linf"): "0.0173913",
    (8, "ssi", "l1"): "0.0666667",
    (8, "ssi", "linf"): "0.0154762",
    (8, "pbi", "l1"): "0.0567084",
    (8, "pbi", "linf"): "0.0139124",
}

# Known games attaining the gap (shift-minimal winning coalitions).  The
# worst vector is unique for ssi/l1 and pbi/linf at n = 7, but two
# isomorphism classes produce it in each case, so "attaining game" lists
# have two entries even where the extremal vector is one of a kind.
OMEGA_WITNESSES = {
    (7, "ssi", "l1"): ((4, 5, 6, 7), (2, 4), (1,)),
    (7, "pbi", "linf"): ((3, 4, 5, 6, 7), (2, 3, 5, 6), (1, 3, 7)),
}

# The ssi/l1 witness above, padded with one null voter: its exact index
# rounds to these 4-significant-digit values, and the weighted game below
# is its best L1 approximation at n = 8.
PADDED_EXTREMAL_BASE = OMEGA_WITNESSES[(7, "ssi", "l1")]
PADDED_EXTREMAL_SSI_4SIG = (
    "0.5024",
    "0.1857",
    "0.1024",
    "0.1024",
    "0.03571",
    "0.03571",
    "0.03571",
    "0",
)
PADDED_BEST_WEIGHTED = "[84;38,27,19,16,9,9,3,0]"
PADDED_BEST_DISTANCE_DECIMAL = "0.0666667"

# Reference distances reachable by padding the extremal games with null
# voters and searching for the nearest weighted game at n = 9, 10, 11.
# The search is heuristic, so these are reference points with stated
# tolerances, not hard certificates.
PADDED_SEARCH_REFERENCE = {
    ("ssi", "l1"): {9: "0.0634922", 10: "0.0634922", 11: "0.0591627"},
    ("ssi", "linf"): {9: "0.0130953", 10: "0.0123016", 11: "0.0109308"},
    ("pbi", "l1"): {9: "0.0562", 10: "0.0552", 11: "0.0552"},
    ("pbi", "linf"): {9: "0.0110", 10: "0.0106", 11: "0.0100"},
}
