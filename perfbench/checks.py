"""Output checks that recompute every answer without calling votekit.

Coalitions are bitmasks with bit j standing for voter j + 1, and voter 1
is the strongest, as in votekit's text format.  Winning sets, power
vectors and nearest-vector scans are rebuilt here with plain numpy and
exact integers; only the certified reference constants come from the
package.  A failed check raises CheckFailed, or KnownDefect when the
output matches the one documented defect of the exact inverse search.
"""

from __future__ import annotations

import re
import struct
from fractions import Fraction
from math import factorial, lcm
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An output disagrees with the independent recomputation."""


class KnownDefect(CheckFailed):
    """`inverse --mode exact` scans the target in the voter order given
    instead of relabelling voters strongest-first, so a reordered target
    gets a correct distance to the wrong point.  Counted as failed, not
    as an unexpected failure, until the program relabels."""


# ---------------------------------------------------------------------------
# Parsing the text format
# ---------------------------------------------------------------------------

_SET = re.compile(r"\{([0-9,]*)\}")


def parse_complete(text: str) -> tuple[int, list[int]]:
    """'n=7; shiftminwin={1,3},{2,4}' -> (7, [masks])."""
    head, _, body = text.partition(";")
    if not head.strip().startswith("n=") or "shiftminwin=" not in body:
        raise CheckFailed(f"not a complete game: {text!r}")
    n = int(head.strip()[2:])
    masks = []
    for members in _SET.findall(body):
        m = 0
        for v in filter(None, members.split(",")):
            m |= 1 << (int(v) - 1)
        masks.append(m)
    return n, masks


def parse_weighted(text: str) -> tuple[int, list[int]]:
    """'[q;w1,...,wn]' -> integer (quota, weights), scaled by a common
    denominator when the text holds fractions."""
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]") and ";" in t):
        raise CheckFailed(f"not a weighted game: {text!r}")
    q_text, _, w_text = t[1:-1].partition(";")
    vals = [Fraction(q_text)] + [Fraction(x) for x in w_text.split(",")]
    scale = lcm(*(v.denominator for v in vals))
    ints = [int(v * scale) for v in vals]
    return ints[0], ints[1:]


# ---------------------------------------------------------------------------
# Winning tables and power vectors
# ---------------------------------------------------------------------------


def _bits(n: int) -> np.ndarray:
    """(2**n, n) 0/1 matrix: row S, column j is 1 when voter j+1 is in S."""
    return (np.arange(1 << n)[:, None] >> np.arange(n)) & 1


def complete_tables(n: int, families) -> np.ndarray:
    """Winning tables of complete games from their shift-minimal winning
    coalitions.  With voters strongest-first, S wins exactly when its
    prefix counts dominate those of some listed coalition."""
    prefix = np.cumsum(_bits(n), axis=1)
    owner = np.repeat(np.arange(len(families)), [len(f) for f in families])
    flat = np.array([m for f in families for m in f], dtype=np.int64)
    out = np.zeros((len(families), 1 << n), dtype=bool)
    step = 4096
    for a in range(0, len(flat), step):
        dom = (prefix[None, :, :] >= prefix[flat[a : a + step]][:, None, :]).all(axis=2)
        np.logical_or.at(out, owner[a : a + step], dom)
    return out


def weighted_tables(n: int, quotas, weights) -> np.ndarray:
    """Winning tables of [q; w] games, one row per game."""
    sums = np.asarray(weights, dtype=np.int64) @ _bits(n).T
    return sums >= np.asarray(quotas, dtype=np.int64)[:, None]


def table_power(tables: np.ndarray, n: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(numerators, denominators) of every game's ssi or pbi vector."""
    masks = np.arange(1 << n)
    sizes = _bits(n).sum(axis=1)
    coef = np.array([factorial(k) * factorial(n - 1 - k) for k in range(n)], dtype=np.int64)
    nums = np.zeros((len(tables), n), dtype=np.int64)
    for i in range(n):
        without = masks[(masks >> i) & 1 == 0]
        swing = tables[:, without | (1 << i)] & ~tables[:, without]
        if kind == "ssi":
            nums[:, i] = swing.astype(np.int64) @ coef[sizes[without]]
        else:
            nums[:, i] = swing.sum(axis=1)
    if kind == "ssi":
        dens = np.full(len(tables), factorial(n), dtype=np.int64)
    else:
        dens = nums.sum(axis=1)
    return nums, dens


def weighted_power(quota: int, weights, kind: str) -> list[Fraction]:
    """Exact power vector of an integer [q; w] game by counting, for each
    voter, the coalitions of the others by size and weight sum."""
    n = len(weights)
    total = sum(weights)
    counts = []
    for i, wi in enumerate(weights):
        dp = np.zeros((n, total + 1), dtype=np.int64)
        dp[0, 0] = 1
        for j, w in enumerate(weights):
            if j != i:
                dp[1:, w:] += dp[:-1, : total + 1 - w]
        lo, hi = max(quota - wi, 0), min(quota - 1, total)
        if wi == 0 or hi < lo:
            counts.append([0] * n)
        else:
            counts.append([int(c) for c in dp[:, lo : hi + 1].sum(axis=1)])
    if kind == "ssi":
        nums = [sum(c * factorial(k) * factorial(n - 1 - k) for k, c in enumerate(row)) for row in counts]
        den = factorial(n)
    else:
        nums = [sum(row) for row in counts]
        den = sum(nums)
    if den == 0:
        raise CheckFailed(f"[{quota};{weights}] has no swings")
    return [Fraction(x, den) for x in nums]


def distance(x, y, metric: str) -> Fraction:
    diffs = [abs(Fraction(a) - Fraction(b)) for a, b in zip(x, y, strict=True)]
    return sum(diffs, Fraction(0)) if metric == "l1" else max(diffs)


def distinct_rows(nums: np.ndarray, dens: np.ndarray) -> int:
    rows = np.concatenate([nums, dens[:, None]], axis=1)
    rows //= np.gcd.reduce(rows, axis=1)[:, None]
    return len(np.unique(rows, axis=0))


# ---------------------------------------------------------------------------
# The cached catalog file, read without the package
# ---------------------------------------------------------------------------


def read_catalog_families(path: Path) -> tuple[int, list[list[int]]]:
    """(n, shift-minimal families) from a VKCAT1 catalog file."""
    data = Path(path).read_bytes()
    magic, _, n, count = struct.unpack_from("<6sBBQ", data, 0)
    if magic != b"VKCAT1":
        raise CheckFailed(f"{path}: not a catalog file")
    pos = struct.calcsize("<6sBBQ")
    families = []
    for _ in range(count):
        (k,) = struct.unpack_from("<H", data, pos)
        families.append(list(struct.unpack_from(f"<{k}I", data, pos + 2)))
        pos += 2 + 4 * k
    return n, families


def nearest_distance(nums: np.ndarray, dens: np.ndarray, target, metric: str) -> Fraction:
    """Exact minimum distance from target to any row nums/dens, by a
    linear scan: floats pick the candidates, integers decide."""
    target = [Fraction(t) for t in target]
    b = lcm(*(t.denominator for t in target))
    a = np.array([int(t * b) for t in target], dtype=np.int64)
    diff = np.abs(nums * b - a[None, :] * dens[:, None])
    dnum = diff.sum(axis=1) if metric == "l1" else diff.max(axis=1)
    approx = dnum / (dens.astype(np.float64) * b)
    cand = np.nonzero(approx <= approx.min() * (1 + 1e-9) + 1e-15)[0]
    return min(Fraction(int(dnum[c]), int(dens[c]) * b) for c in cand)


# ---------------------------------------------------------------------------
# Per-command checks
# ---------------------------------------------------------------------------


def check_tables(results: dict, ns, certified) -> None:
    want = {(k, n) for k in ("cg", "wg") for n in ns}
    got = {(r["class"], r["n"]): r for r in results["rows"]}
    if set(got) != want:
        raise CheckFailed(f"tables rows {sorted(got)} != {sorted(want)}")
    for (klass, n), row in got.items():
        games = (certified.COMPLETE_COUNTS if klass == "cg" else certified.WEIGHTED_COUNTS)[n]
        if row["games"] != games:
            raise CheckFailed(f"{klass}{n}: {row['games']} games, certified {games}")
        for kind in ("ssi", "pbi"):
            expected = certified.DISTINCT_VECTOR_COUNTS[klass, kind][n]
            if row[kind] != expected:
                raise CheckFailed(f"{klass}{n} {kind}: {row[kind]} distinct, certified {expected}")


def check_omega(results: dict, n: int, certified) -> None:
    seen = set()
    for rep in results["reports"]:
        key = (n, rep["kind"], rep["metric"])
        expected = certified.OMEGA_DECIMALS[key]
        if rep["decimal"] != expected:
            raise CheckFailed(f"omega {key}: decimal {rep['decimal']}, certified {expected}")
        if abs(Fraction(rep["omega"]) - Fraction(expected)) > Fraction(5, 10**8):
            raise CheckFailed(f"omega {key}: {rep['omega']} does not round to {expected}")
        if not rep["attaining"]:
            raise CheckFailed(f"omega {key}: no attaining game")
        seen.add(key)
    if len(seen) != 4:
        raise CheckFailed(f"omega reported {sorted(seen)}, expected all four pairs")


def check_listing(results: dict, n: int, certified) -> None:
    """Every listed [q; w] must win exactly where its complete game wins."""
    games = results["games"]
    if len(games) != certified.WEIGHTED_COUNTS[n]:
        raise CheckFailed(f"wg{n} listing has {len(games)} rows, certified {certified.WEIGHTED_COUNTS[n]}")
    families = []
    quotas = []
    weights = []
    for g in games:
        gn, fam = parse_complete(g["game"])
        q, w = parse_weighted(g["representation"])
        if gn != n or len(w) != n:
            raise CheckFailed(f"wrong voter count in {g}")
        families.append(fam)
        quotas.append(q)
        weights.append(w)
    bad = np.nonzero((complete_tables(n, families) != weighted_tables(n, quotas, weights)).any(axis=1))[0]
    if len(bad):
        g = games[int(bad[0])]
        raise CheckFailed(f"{len(bad)} listed representations miss their game, e.g. {g['representation']} for {g['game']}")


def check_exact(res: dict, target, metric: str, vectors: tuple[np.ndarray, np.ndarray]) -> None:
    """Exact inverse: the distance equals a scan of all weighted vectors
    against the target sorted strongest-first (relabelling is free), and
    the reported vector is the returned game's power vector."""
    if res["mode"] != "exact-min":
        raise CheckFailed(f"exact inverse labelled {res['mode']!r}")
    kind = res["vector"]["kind"]
    got = Fraction(res["distance"])
    vec = [Fraction(v) for v in res["vector"]["values"]]
    q, w = parse_weighted(res["game"])
    if weighted_power(q, w, kind) != vec:
        raise CheckFailed(f"vector of {res['game']} is not its {kind}")
    if distance(vec, target, metric) != got:
        raise CheckFailed(f"reported distance {got} is not the distance of the reported vector")
    ordered = sorted(target, reverse=True)
    best = nearest_distance(*vectors, ordered, metric)
    if got == best:
        return
    if got > best and list(target) != ordered and got == nearest_distance(*vectors, target, metric):
        raise KnownDefect(f"{kind}/{metric}: distance {got}, relabelled optimum {best}")
    raise CheckFailed(f"{kind}/{metric}: distance {got}, linear-scan optimum {best}")


def check_heuristic(res: dict, target=None) -> Fraction:
    """A heuristic answer is labelled as an upper bound and is achieved:
    its vector is its game's power vector at the reported distance."""
    if res["mode"] != "heuristic-upper-bound":
        raise CheckFailed(f"heuristic inverse labelled {res['mode']!r}")
    kind = res["vector"]["kind"]
    target = [Fraction(t) for t in (target if target is not None else res["target"])]
    vec = [Fraction(v) for v in res["vector"]["values"]]
    q, w = parse_weighted(res["game"])
    if weighted_power(q, w, kind) != vec:
        raise CheckFailed(f"vector of {res['game']} is not its {kind}")
    got = Fraction(res["distance"])
    if distance(vec, target, res["metric"]) != got:
        raise CheckFailed(f"reported distance {got} is not the distance of the reported vector")
    return got


def check_padded_floor(kind: str, n: int, bound: Fraction, reference: Fraction, tol: Fraction) -> None:
    """A heuristic never beats the certified padded reference."""
    if bound < reference - tol:
        raise CheckFailed(f"{kind} n={n}: heuristic bound {bound} undercuts reference {reference}")
