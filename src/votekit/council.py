"""The double-majority council rule.

Models the voting rule of the Council of the European Union under the
Lisbon treaty: a motion passes when at least 55% of the member states
vote for it and those states cover at least 65% of the union population,
unless the opposing side has fewer than four members (a blocking
minority needs at least four states).  As a game on n members with
populations p:

    ([0.55 n; 1,...,1] and [0.65; p/sum(p)]) or [n-3; 1,...,1]

Population shares are exact rationals by default; an optional
quantization rounds them (half up) to a fixed grid such as thousandths,
which is what makes the dynamic-programming index path cheap.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .games import BoolCombo, WeightedGame

__all__ = ["parse_populations", "population_shares", "council_game"]


def parse_populations(text: str) -> list[tuple[str, int]]:
    """Population file: one "name,population" pair per line.

    Blank lines and lines starting with '#' are skipped.  Populations are
    positive integers; there is no built-in membership table, so the file
    is the single source of truth.
    """
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, pop = line.rpartition(",")
        if not sep or not name.strip():
            raise ValueError(f"line {lineno}: expected 'name,population', got {raw!r}")
        try:
            value = int(pop.strip())
        except ValueError:
            raise ValueError(f"line {lineno}: population {pop.strip()!r} is not an integer") from None
        if value <= 0:
            raise ValueError(f"line {lineno}: population must be positive")
        out.append((name.strip(), value))
    if not out:
        raise ValueError("no members found in the population file")
    return out


def population_shares(populations: Sequence[int], quantize: int | None = None) -> list[Fraction]:
    """Each member's share of the total population, exact, or rounded
    half up to multiples of 1/quantize when quantize is set."""
    if any(p <= 0 for p in populations):
        raise ValueError("populations must be positive")
    total = sum(populations)
    if quantize is None:
        return [Fraction(p, total) for p in populations]
    if quantize < 1:
        raise ValueError("quantize must be a positive grid size")
    shares = [Fraction((p * quantize * 2 + total) // (2 * total), quantize) for p in populations]
    if all(s == 0 for s in shares):
        raise ValueError("quantization grid too coarse: every share rounded to zero")
    return shares


def council_game(populations: Sequence[int], quantize: int | None = None) -> BoolCombo:
    """The council rule for the given member populations.

    quantize, if set, rounds population shares half-up to multiples of
    1/quantize (1000 gives per-mille weights).  The population threshold
    stays at 0.65 of the total of the weights actually used.
    """
    n = len(populations)
    if n < 4:
        raise ValueError("the council rule needs at least four members")
    shares = population_shares(populations, quantize)
    ones = [Fraction(1)] * n
    members = WeightedGame(Fraction(55, 100) * n, ones)
    population = WeightedGame(Fraction(65, 100) * sum(shares), shares)
    blocking = WeightedGame(Fraction(n - 3), ones)
    return BoolCombo("or", [BoolCombo("and", [members, population]), blocking])
