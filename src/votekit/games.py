"""Game representations for binary voting rules.

A simple game on voters 1..n is a monotone surjective map from coalitions
to {0, 1}.  Coalitions are bitmasks throughout: voter i occupies bit i-1,
so the coalition {1, 3} is 0b101 = 5.  An outcome table lists the 2**n
coalitions by mask, so voter b + 1 splits it into alternating blocks of
2**b coalitions without and with it: every per-voter scan reads the two
through _voter_halves, and a relabelling is one transpose of the table
seen as a (2,)*n array.  Four representations are supported:

* ExplicitGame: the full outcome table over all 2**n coalitions.
* WeightedGame: a quota plus per-voter weights, all exact rationals.
* CompleteGame: the shift-minimal winning coalitions of a game whose
  voter ordering 1, 2, ..., n runs from strongest to weakest.  One
  shift-order test, _dominating, answers its queries at every n.
* BoolCombo: and/or combinations of weighted games on a shared voter set.

A sorted complete game's shift families, its shift-minimal winning and
shift-maximal losing coalitions, come from one extractor, _shift_family,
for a catalog chunk and a single game alike.  It tests only the covers
of the shift order.  With voters strongest-first and bit b voter b + 1,
the lower covers of coalition m are m + 2**b for each b < n - 1 with bit
b set and bit b + 1 clear, and m - 2**(n-1) when m holds the weakest
voter; the upper covers are the inverse maps.  The covers generate the
order, so on a shift-closed table a winning coalition is shift-minimal
exactly when no lower cover wins, and a losing one shift-maximal exactly
when no upper cover loses.  Each kind of cover is one shift of a game's
table packed into uint64 words.  The covers are the one generating
relation used: _lower_covers_of gives one coalition's lower covers, for
CompleteGame's validation and, as the per-mask table _lower_covers,
for the enumeration DFS.

is_complete tests n - 1 voter pairs, not all n(n-1)/2.  Desirability is
a preorder, and a strictly more desirable voter has strictly more swings
(Taylor & Zwicker, Simple Games, 1999).  Sort the voters by swings, most
first, ties by number.  In a complete game each voter is at least as
desirable as the next, else the next would be strictly more desirable
with no more swings; conversely, when each is at least as desirable as
the next, transitivity makes the relation total.  Swings are signed
(wins with the voter less wins without it, over the coalitions without
it), so both facts hold on any 0/1 table.

All arithmetic is exact (integers and fractions.Fraction); floats never
enter a decision.  numpy is used for table plumbing only.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Sequence, Union

import numpy as np

from .exactlp import solve_nonneg_geq

__all__ = [
    "Coalition",
    "DesirabilityOutcome",
    "ExplicitGame",
    "WeightedGame",
    "CompleteGame",
    "BoolCombo",
    "Game",
    "GameParseError",
    "coalition_mask",
    "coalition_members",
    "parse_game",
    "game_to_text",
    "evaluate",
    "to_explicit",
    "desirability",
    "dominates",
    "is_complete",
    "sort_by_desirability",
    "shift_minimal_winning",
    "shift_maximal_losing",
    "is_weighted",
    "add_null_voters",
    "canonical_table",
]

Coalition = int

MAX_EXPLICIT_VOTERS = 24


def coalition_mask(members: Iterable[int]) -> Coalition:
    """Bitmask of a coalition given 1-based voter numbers."""
    m = 0
    for i in members:
        if i < 1:
            raise ValueError("voter numbers are 1-based")
        m |= 1 << (i - 1)
    return m


def coalition_members(mask: Coalition) -> tuple[int, ...]:
    """The 1-based voter numbers of a coalition, ascending."""
    return tuple(b + 1 for b in range(mask.bit_length()) if mask >> b & 1)


@lru_cache(maxsize=None)
def _members(n: int) -> np.ndarray:
    """The coalition-membership matrix, read-only: row m, column i is 1
    when voter i + 1 is in coalition m."""
    members = (np.arange(1 << n, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    members.flags.writeable = False
    return members


def _voter_halves(table: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of a (..., 2**n) table split on voter b + 1: the coalitions
    without the voter and the same coalitions with it, each shaped
    (..., 2**(n-1-b), 2**b) and ascending by mask.  On a contiguous table
    a write to either view writes the table."""
    n = table.shape[-1].bit_length() - 1
    split = table.reshape(*table.shape[:-1], 1 << (n - 1 - b), 2, 1 << b)
    return split[..., 0, :], split[..., 1, :]


def _pair_halves(table: np.ndarray, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """The outcomes of the coalitions holding neither voter i nor voter j,
    joined by i and joined by j: two nested _voter_halves."""
    lo, hi = sorted((i - 1, j - 1))
    without_hi, with_hi = _voter_halves(table, hi)
    lo_only, hi_only = _voter_halves(without_hi, lo)[1], _voter_halves(with_hi, lo)[0]
    return (lo_only, hi_only) if i < j else (hi_only, lo_only)


# ---------------------------------------------------------------------------
# The shift order on coalitions.
#
# S <= T when T is reachable from S by adding members or by swapping a
# member for a stronger (smaller-index) voter.  Winning sets of a game
# sorted by decreasing desirability are exactly the up-sets of this order.
# Its covers, which generate it, are set out in the module docstring.
# ---------------------------------------------------------------------------


# The family extractor packs a whole coalition lattice per game, so it is
# reserved for sizes where 2**n stays small.
MAX_SHIFT_TABLE_VOTERS = 14

# Coalitions per block of _dominating: at 24 voters, 3 MB of shifted masks.
_DOMINATION_BLOCK = 1 << 14


def _prefix_rows(masks, n: int) -> np.ndarray:
    """Prefix counts, one row per prefix: row j, column k is how many of
    the strongest j + 1 voters coalition masks[k] holds.  masks is a
    range, a list or an array of coalitions."""
    if isinstance(masks, range):
        masks = np.arange(masks.start, masks.stop, masks.step, dtype=np.int64)
    masks = np.asarray(masks, dtype=np.int64 if n < 64 else object)
    rows = ((masks >> np.arange(n)[:, None]) & 1).astype(np.min_scalar_type(n))
    for j in range(1, n):
        rows[j] += rows[j - 1]
    return rows


def _dominating(masks, floors, n: int) -> np.ndarray:
    """For each coalition of masks (a range, a list or an array), whether it
    dominates some floor: holds, for every j, at least as many of the
    strongest j voters as the floor does.  A floor's count steps up only at
    its members, so it is checked at its i-th member against i."""
    steps = [[j for j in range(n) if floor >> j & 1] for floor in floors]
    out = np.zeros(len(masks), dtype=bool)
    for start in range(0, len(masks), _DOMINATION_BLOCK):
        held = _prefix_rows(masks[start : start + _DOMINATION_BLOCK], n)
        need = np.arange(1, n + 1, dtype=held.dtype)[:, None]
        win = out[start : start + _DOMINATION_BLOCK]
        for at in steps:
            win |= (held[at] >= need[: len(at)]).all(axis=0)
    return out


def dominates(a: Coalition, b: Coalition, n: int) -> bool:
    """True when coalition a is at least as strong as b in the shift order."""
    return bool(_dominating([a], [b], n)[0])


@lru_cache(maxsize=None)
def _linear_extension(n: int) -> tuple[int, ...]:
    """Every coalition, weak ones first: by size, then descending index
    sum, then mask (np.lexsort is stable).  A coalition strictly below
    another in the shift order is smaller, or as large with a larger index
    sum, so it comes first."""
    members = _members(n)
    keys = (-(members @ np.arange(1, n + 1)), members.sum(axis=1))
    return tuple(np.lexsort(keys).tolist())


def _lower_covers_of(m: Coalition, n: int) -> list[Coalition]:
    """The lower covers of a coalition, as _cover_steps(n, True) marks
    them: a member moves one place weaker, or the weakest voter leaves."""
    covers = [m + (1 << b) for b in range(n - 1) if m >> b & 3 == 1]
    if m >> (n - 1) & 1:
        covers.append(m - (1 << (n - 1)))
    return covers


@lru_cache(maxsize=None)
def _lower_covers(n: int) -> tuple[tuple[int, ...], ...]:
    """The lower covers of every coalition, by mask: the enumeration DFS
    forces a coalition to win when one of them wins."""
    return tuple(tuple(_lower_covers_of(m, n)) for m in range(1 << n))


def _packed_words(tables: np.ndarray) -> np.ndarray:
    """The rows of a (games, 2**n) 0/1 table as little-endian uint64 words:
    bit m of a row is coalition m, and bits past 2**n are clear."""
    packed = np.packbits(tables, axis=1, bitorder="little")
    if packed.shape[1] % 8:  # fewer than 64 coalitions: one padded word
        packed = np.pad(packed, ((0, 0), (0, 8 - packed.shape[1])))
    return packed.view("<u8")


@lru_cache(maxsize=None)
def _cover_steps(n: int, winning: bool) -> tuple[tuple[int, np.ndarray], ...]:
    """(s, mask) per kind of cover, mask a packed row: each coalition m of
    mask has the cover m + s, a lower cover when winning and an upper one
    otherwise.  Every cover of every coalition is in exactly one step."""
    masks = np.arange(1 << n, dtype=np.int64)
    held = [(masks >> b) & 1 == 1 for b in range(n)]
    weakest = 1 << (n - 1)
    if winning:  # a member moves one place weaker, or the weakest voter leaves
        steps = [(1 << b, held[b] & ~held[b + 1]) for b in range(n - 1)] + [(-weakest, held[-1])]
    else:  # a member moves one place stronger, or the weakest voter joins
        steps = [(-(1 << b), ~held[b] & held[b + 1]) for b in range(n - 1)] + [(weakest, ~held[-1])]
    out = []
    for s, mask in steps:
        words = _packed_words(mask[None, :])[0]
        words.flags.writeable = False
        out.append((s, words))
    return tuple(out)


def _moved(words: np.ndarray, s: int) -> np.ndarray:
    """Packed rows moved by s bits: bit m of a moved row is bit m + s of
    the row, or 0 past either end.  s is a power of two or its negative,
    so a move of 64 bits or more is a move of whole words."""
    out = np.zeros_like(words)
    k = abs(s) // 64
    if s >= 64:
        out[:, :-k] = words[:, k:]
    elif s <= -64:
        out[:, k:] = words[:, :-k]
    elif s > 0:
        np.right_shift(words, s, out=out)
        out[:, :-1] |= words[:, 1:] << (64 - s)
    else:
        np.left_shift(words, -s, out=out)
        out[:, 1:] |= words[:, :-1] >> (64 + s)
    return out


def _shift_family(tables: np.ndarray, n: int, winning: bool) -> np.ndarray:
    """Per game (a row of a (games, 2**n) 0/1 table), a boolean row marking
    its shift-minimal winning coalitions (winning=True) or its
    shift-maximal losing ones: the coalitions of the kind that no lower
    cover shares (winning) or no upper cover shares (losing).

    The rows must be shift-closed, voters strongest-first.  There a
    coalition strictly below m lies at or below a lower cover of m (and
    dually above), so when no cover on that side shares m's outcome, no
    coalition on that side does.  Each game is packed into 64-coalition
    words, and each kind of cover is one move of the whole block.  More
    than MAX_SHIFT_TABLE_VOTERS voters raise ValueError.
    """
    if n > MAX_SHIFT_TABLE_VOTERS:
        raise ValueError(f"shift families support at most {MAX_SHIFT_TABLE_VOTERS} voters, got {n}")
    kind = _packed_words(tables)
    if not winning:
        kind = ~kind
    shared = np.zeros_like(kind)
    for s, mask in _cover_steps(n, winning):
        shared |= _moved(kind, s) & mask
    kind &= ~shared
    return np.unpackbits(kind.view(np.uint8), axis=1, count=1 << n, bitorder="little").view(bool)


def _mask_lists(keep: np.ndarray) -> list[tuple[int, ...]]:
    """The marked coalitions of each row of a boolean matrix, ascending."""
    rows, cols = np.nonzero(keep)
    bounds = np.searchsorted(rows, np.arange(keep.shape[0] + 1))
    return [tuple(int(c) for c in cols[bounds[g] : bounds[g + 1]]) for g in range(keep.shape[0])]


class DesirabilityOutcome(enum.Enum):
    GEQ = "geq"
    LEQ = "leq"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


class GameParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# Representations
# ---------------------------------------------------------------------------


def _check_explicit_voters(n: int) -> None:
    if n < 1 or n > MAX_EXPLICIT_VOTERS:
        raise ValueError(f"explicit tables support 1..{MAX_EXPLICIT_VOTERS} voters, got {n}")


class ExplicitGame:
    """A simple game stored as its full outcome table.

    The table has 2**n entries of 0/1, indexed by coalition bitmask.
    Construction enforces v(empty) = 0, v(full) = 1 and monotonicity
    under inclusion.
    """

    __slots__ = ("n", "table", "_hash")

    def __init__(self, n: int, table, validate: bool = True):
        _check_explicit_voters(n)
        data = bytes(table)
        if len(data) != 1 << n:
            raise ValueError(f"table for {n} voters must have {1 << n} entries, got {len(data)}")
        self.n = n
        self.table = data
        self._hash = None
        if validate:
            self._validate()

    def _validate(self):
        t = self.np_table
        if t.max() > 1:
            raise ValueError("table entries must be 0 or 1")
        if t[0] != 0:
            raise ValueError("not a simple game: the empty coalition wins")
        if t[-1] != 1:
            raise ValueError("not a simple game: the full coalition loses")
        for b in range(self.n):
            without, with_voter = _voter_halves(t, b)
            if np.any(without > with_voter):
                raise ValueError("table is not monotone")

    @property
    def np_table(self) -> np.ndarray:
        return np.frombuffer(self.table, dtype=np.uint8)

    def value(self, mask: Coalition) -> int:
        return self.table[mask]

    def __eq__(self, other):
        return isinstance(other, ExplicitGame) and self.n == other.n and self.table == other.table

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.table))
        return self._hash

    def __repr__(self):
        return f"ExplicitGame(n={self.n}, winning={int(self.np_table.sum())})"


class WeightedGame:
    """A weighted game [quota; w_1, ..., w_n] with exact rational entries.

    A coalition wins when its weight sum reaches the quota.  The quota must
    be positive (so the empty coalition loses) and must not exceed the total
    weight (so the full coalition wins).
    """

    __slots__ = ("quota", "weights", "_scaled")

    def __init__(self, quota, weights):
        q = Fraction(quota)
        w = tuple(Fraction(x) for x in weights)
        if not w:
            raise ValueError("a weighted game needs at least one voter")
        if q <= 0:
            raise ValueError("quota must be positive")
        if any(x < 0 for x in w):
            raise ValueError("weights must be nonnegative")
        if sum(w) < q:
            raise ValueError("quota exceeds the total weight: the full coalition would lose")
        self.quota = q
        self.weights = w
        self._scaled = None

    @property
    def n(self) -> int:
        return len(self.weights)

    def scaled_ints(self) -> tuple[int, tuple[int, ...]]:
        """Integer threshold t and weights W with: S wins iff W(S) >= t.

        Only the weights' denominators scale: W(S) is an integer, so the
        quota rounds up to t with every outcome kept, and weight sums (the
        DP's state axes) stay as short as the weights allow."""
        if self._scaled is None:
            den = math.lcm(*(w.denominator for w in self.weights))
            wints = tuple(int(w * den) for w in self.weights)
            self._scaled = (math.ceil(self.quota * den), wints)
        return self._scaled

    def value(self, mask: Coalition) -> int:
        t, w = self.scaled_ints()
        return int(sum(w[i - 1] for i in coalition_members(mask)) >= t)

    def __eq__(self, other):
        return (
            isinstance(other, WeightedGame)
            and self.quota == other.quota
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.quota, self.weights))

    def __repr__(self):
        return f"WeightedGame({game_to_text(self)!r})"


class CompleteGame:
    """A game given by its shift-minimal winning coalitions.

    Voters are listed from strongest to weakest, so every coalition that
    dominates a listed one in the shift order wins.  The listed family must
    be exactly the shift-minimal winning family of the induced game, which
    also forces it to be an antichain.  Every query runs _dominating.
    """

    __slots__ = ("n", "shift_minimal")

    def __init__(self, n: int, coalitions: Iterable[Coalition], validate: bool = True):
        masks = tuple(sorted(set(int(m) for m in coalitions)))
        if n < 1:
            raise ValueError("need at least one voter")
        if not masks:
            raise ValueError("at least one winning coalition is required")
        if masks[0] == 0:
            raise ValueError("the empty coalition cannot be winning")
        if masks[-1] >= 1 << n:
            raise ValueError(f"coalition {masks[-1]:b} does not fit {n} voters")
        self.n = n
        self.shift_minimal = masks
        if validate:
            self._validate()

    def _validate(self):
        # Each listed coalition must stay shift-minimal in the induced game:
        # none of its lower covers may dominate any listed coalition.
        pairs = [(m, f) for m in self.shift_minimal for f in _lower_covers_of(m, self.n)]
        hits = _dominating([f for _, f in pairs], self.shift_minimal, self.n)
        if hits.any():
            m = pairs[hits.argmax()][0]
            raise ValueError(f"coalition {set(coalition_members(m))} is not shift-minimal")

    def value(self, mask: Coalition) -> int:
        return int(_dominating([mask], self.shift_minimal, self.n)[0])

    def __eq__(self, other):
        return (
            isinstance(other, CompleteGame)
            and self.n == other.n
            and self.shift_minimal == other.shift_minimal
        )

    def __hash__(self):
        return hash((self.n, self.shift_minimal))

    def __repr__(self):
        return f"CompleteGame({game_to_text(self)!r})"


class BoolCombo:
    """An and/or combination of weighted games over one voter set.

    "and" wins when every part wins (pointwise minimum), "or" when any part
    does (pointwise maximum).  The empty coalition always loses because each
    leaf has a positive quota; the full coalition is checked eagerly so a
    combination that can never win is rejected at construction.
    """

    __slots__ = ("op", "parts")

    def __init__(self, op: str, parts: Sequence[Union["BoolCombo", WeightedGame]]):
        if op not in ("and", "or"):
            raise ValueError("op must be 'and' or 'or'")
        parts = tuple(parts)
        if len(parts) < 2:
            raise ValueError("a combination needs at least two parts")
        ns = {p.n for p in parts}
        if len(ns) != 1:
            raise ValueError(f"dimension mismatch: parts have voter counts {sorted(ns)}")
        self.op = op
        self.parts = parts
        full = (1 << self.n) - 1
        if not self.value(full):
            raise ValueError("not a simple game: the full coalition loses this combination")

    @property
    def n(self) -> int:
        return self.parts[0].n

    def value(self, mask: Coalition) -> int:
        if self.op == "and":
            return 1 if all(p.value(mask) for p in self.parts) else 0
        return 1 if any(p.value(mask) for p in self.parts) else 0

    def __eq__(self, other):
        return isinstance(other, BoolCombo) and self.op == other.op and self.parts == other.parts

    def __hash__(self):
        return hash((self.op, self.parts))

    def __repr__(self):
        return f"BoolCombo({game_to_text(self)!r})"


Game = Union[ExplicitGame, WeightedGame, CompleteGame, BoolCombo]


# ---------------------------------------------------------------------------
# Parsing and rendering
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise GameParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        self.skip_ws()
        if not self.text.startswith(ch, self.pos):
            self.error(f"expected {ch!r}")
        self.pos += len(ch)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start : self.pos])

    def rational(self) -> Fraction:
        # integer, integer/integer, or a decimal such as 0.65 (read exactly)
        num = self.integer()
        if self.pos < len(self.text) and self.text[self.pos] == "/":
            self.pos += 1
            den = self.integer()
            if den == 0:
                self.error("zero denominator")
            return Fraction(num, den)
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == start:
                self.error("expected digits after the decimal point")
            frac = self.text[start : self.pos]
            return Fraction(num) + Fraction(int(frac), 10 ** len(frac))
        return Fraction(num)

    def weighted(self) -> WeightedGame:
        self.take("[")
        quota = self.rational()
        self.take(";")
        weights = [self.rational()]
        while self.peek() == ",":
            self.take(",")
            weights.append(self.rational())
        self.take("]")
        try:
            return WeightedGame(quota, weights)
        except ValueError as exc:
            self.error(str(exc))

    def factor(self):
        if self.peek() == "(":
            self.take("(")
            g = self.expr()
            self.take(")")
            return g
        if self.peek() == "[":
            return self.weighted()
        self.error("expected '[' or '('")

    def combine(self, op: str, parts: list) -> Game:
        if len(parts) == 1:
            return parts[0]
        try:
            return BoolCombo(op, parts)
        except ValueError as exc:
            self.error(str(exc))

    def term(self):
        parts = [self.factor()]
        while self.peek() == "&":
            self.take("&")
            parts.append(self.factor())
        return self.combine("and", parts)

    def expr(self):
        parts = [self.term()]
        while self.peek() == "|":
            self.take("|")
            parts.append(self.term())
        return self.combine("or", parts)

    def coalition_set(self) -> Coalition:
        self.take("{")
        members = [self.integer()]
        while self.peek() == ",":
            self.take(",")
            members.append(self.integer())
        self.take("}")
        try:
            return coalition_mask(members)
        except ValueError as exc:
            self.error(str(exc))

    def literal(self) -> Game:
        self.take("n")
        self.take("=")
        n = self.integer()
        self.take(";")
        self.skip_ws()
        for kw in ("shiftminwin", "minwin"):
            if self.text.startswith(kw, self.pos):
                self.pos += len(kw)
                break
        else:
            self.error("expected 'minwin' or 'shiftminwin'")
        self.take("=")
        masks = [self.coalition_set()]
        while self.peek() == ",":
            self.take(",")
            masks.append(self.coalition_set())
        if max(masks) >= 1 << n:
            self.error(f"coalition exceeds the declared {n} voters")
        try:
            if kw == "shiftminwin":
                return CompleteGame(n, masks)
            return _explicit_from_minimal_winning(n, masks)
        except ValueError as exc:
            self.error(str(exc))


def _explicit_from_minimal_winning(n: int, masks: Sequence[Coalition]) -> ExplicitGame:
    _check_explicit_voters(n)
    if 0 in masks:
        raise ValueError("the empty coalition cannot be winning")
    table = np.zeros(1 << n, dtype=np.uint8)
    table[list(masks)] = 1
    for b in range(n):  # close upwards, one voter at a time
        without, with_voter = _voter_halves(table, b)
        with_voter |= without
    return ExplicitGame(n, table.tobytes(), validate=False)


def parse_game(text: str) -> Game:
    """Parse the game grammar.

    Accepts weighted games like "[3;3,2,1,1]", and/or combinations with '&'
    binding tighter than '|', parentheses, and the explicit literals
    "n=4; minwin={1,2},{3,4}" and "n=7; shiftminwin={1},{2,4}".  Rationals
    may be written as fractions or decimals; both are read exactly.
    """
    p = _Parser(text)
    p.skip_ws()
    if p.text.startswith("n", p.pos):
        g = p.literal()
    else:
        g = p.expr()
    p.skip_ws()
    if p.pos != len(p.text):
        p.error("unexpected trailing input")
    return g


def _set_str(mask: Coalition) -> str:
    return "{" + ",".join(str(i) for i in coalition_members(mask)) + "}"


# Voter counts whose coalition strings are tabulated: 256 strings at 8.
_SET_TABLE_VOTERS = 8


@lru_cache(maxsize=None)
def _set_strs(n: int) -> tuple[str, ...]:
    """_set_str of every coalition of n voters, indexed by mask."""
    return tuple(_set_str(m) for m in range(1 << n))


def _complete_texts(n: int, families: Iterable[Sequence[Coalition]]) -> list[str]:
    """The text of each complete game with n voters and the given
    shift-minimal family, masks ascending."""
    head = f"n={n}; shiftminwin="
    if n > _SET_TABLE_VOTERS:
        return [head + ",".join(map(_set_str, masks)) for masks in families]
    sets = _set_strs(n)
    return [head + ",".join([sets[m] for m in masks]) for masks in families]


def _weighted_texts(n: int, rows: Iterable[Sequence]) -> list[str]:
    """The text [q;w1,...,wn] of each (quota, n weights) row of integers
    or Fractions; str writes a Fraction of denominator 1 as an integer."""
    form = "[%s;" + ",".join(["%s"] * n) + "]"
    return [form % tuple(row) for row in rows]


def game_to_text(g: Game) -> str:
    """Render a game in the text grammar; parse_game inverts this exactly."""
    if isinstance(g, WeightedGame):
        return _weighted_texts(g.n, [(g.quota, *g.weights)])[0]
    if isinstance(g, CompleteGame):
        return _complete_texts(g.n, [g.shift_minimal])[0]
    if isinstance(g, ExplicitGame):
        sets = ",".join(_set_str(m) for m in _minimal_winning(g))
        return f"n={g.n}; minwin={sets}"
    if isinstance(g, BoolCombo):
        if g.op == "or":
            return " | ".join(game_to_text(p) for p in g.parts)
        rendered = []
        for p in g.parts:
            s = game_to_text(p)
            if isinstance(p, BoolCombo) and p.op == "or":
                s = f"({s})"
            rendered.append(s)
        return " & ".join(rendered)
    raise TypeError(f"not a game: {g!r}")


# ---------------------------------------------------------------------------
# Conversions and structural queries
# ---------------------------------------------------------------------------


def evaluate(g: Game, coalition) -> int:
    """Outcome of the game on a coalition (bitmask or 1-based members)."""
    mask = coalition if isinstance(coalition, int) else coalition_mask(coalition)
    if mask < 0 or mask >= 1 << g.n:
        raise ValueError(f"coalition {mask} does not fit {g.n} voters")
    return g.value(mask)


def _weighted_table(g: WeightedGame) -> np.ndarray:
    # Coalition weights doubled one voter at a time; Python ints (object)
    # once a sum could pass int64.
    t, wints = g.scaled_ints()
    sums = np.zeros(1, dtype=np.int64 if sum(wints) < 1 << 62 else object)
    for w in wints:
        sums = np.concatenate([sums, sums + w])
    return (sums >= t).astype(np.uint8)


def to_explicit(g: Game) -> ExplicitGame:
    """Materialize the full outcome table (supported through n = 24)."""
    if isinstance(g, ExplicitGame):
        return g
    if g.n > MAX_EXPLICIT_VOTERS:
        raise ValueError(f"explicit tables support at most {MAX_EXPLICIT_VOTERS} voters")
    if isinstance(g, WeightedGame):
        return ExplicitGame(g.n, _weighted_table(g).tobytes(), validate=False)
    if isinstance(g, CompleteGame):
        table = _dominating(range(1 << g.n), g.shift_minimal, g.n).view(np.uint8)
        return ExplicitGame(g.n, table.tobytes(), validate=False)
    if isinstance(g, BoolCombo):
        tables = []
        for p in g.parts:
            tables.append(to_explicit(p).np_table)
        acc = tables[0]
        for t in tables[1:]:
            acc = np.minimum(acc, t) if g.op == "and" else np.maximum(acc, t)
        return ExplicitGame(g.n, acc.tobytes(), validate=False)
    raise TypeError(f"not a game: {g!r}")


def _minimal_winning(g: ExplicitGame) -> list[Coalition]:
    """Inclusion-minimal winning coalitions."""
    t = g.np_table
    minimal = t.astype(bool)
    for b in range(g.n):
        has = _voter_halves(minimal, b)[1]
        has &= _voter_halves(t, b)[0] == 0
    return np.flatnonzero(minimal).tolist()


def desirability(g: Game, i: int, j: int) -> DesirabilityOutcome:
    """Compare the influence of voters i and j.

    i is at least as desirable as j when swapping j for i never turns a win
    into a loss, over every coalition containing neither.
    """
    for v in (i, j):
        if not 1 <= v <= g.n:
            raise ValueError(f"voter {v} is not one of the game's {g.n} voters")
    if i == j:
        return DesirabilityOutcome.EQUAL
    with_i, with_j = _pair_halves(to_explicit(g).np_table, i, j)
    geq = bool(np.all(with_i >= with_j))
    leq = bool(np.all(with_j >= with_i))
    if geq and leq:
        return DesirabilityOutcome.EQUAL
    if geq:
        return DesirabilityOutcome.GEQ
    if leq:
        return DesirabilityOutcome.LEQ
    return DesirabilityOutcome.INCOMPARABLE


def _relabelled(e: ExplicitGame, perm: Sequence[int]) -> ExplicitGame:
    """The game e with new voter k being old voter perm[k-1]: seen as a
    (2,)*n array, axis a of the table holds voter n - a, so one transpose."""
    axes = [e.n - p for p in reversed(perm)]
    return ExplicitGame(e.n, e.np_table.reshape((2,) * e.n).transpose(axes).tobytes(), validate=False)


def is_complete(g: Game) -> tuple[bool, tuple[int, ...] | None]:
    """Whether the desirability relation is total.

    On success also returns the reordering as a tuple p where new position
    k (1-based) is taken by old voter p[k-1]; voters are sorted strongest
    first with ties broken by original index.  It makes n - 1 pair tests;
    the module docstring gives the argument.
    """
    e = to_explicit(g)
    t = e.np_table
    swings = []
    for b in range(e.n):
        without, with_voter = _voter_halves(t, b)
        swings.append(int(with_voter.sum()) - int(without.sum()))
    order = sorted(range(1, e.n + 1), key=lambda v: (-swings[v - 1], v))
    for u, v in zip(order, order[1:]):
        with_u, with_v = _pair_halves(t, u, v)
        if np.any(with_u < with_v):
            return False, None
    return True, tuple(order)


def sort_by_desirability(g: Game) -> tuple[ExplicitGame, tuple[int, ...]]:
    """Relabel voters strongest-first; fails on games that are not complete."""
    e = to_explicit(g)
    ok, perm = is_complete(e)
    if not ok:
        raise ValueError("the desirability relation is not total; the game cannot be sorted")
    return _relabelled(e, perm), perm


def shift_minimal_winning(g: Game) -> CompleteGame:
    """Shift-minimal winning coalitions of a sorted complete game.

    The input must already be labelled strongest-first (as produced by
    sort_by_desirability); a winning coalition is kept when every lower
    cover loses.
    """
    e = to_explicit(g)
    masks = _mask_lists(_shift_family(e.np_table[None, :], e.n, True))[0]
    cg = CompleteGame(e.n, masks, validate=False)
    if to_explicit(cg).table != e.table:
        raise ValueError("game is not shift-closed; sort voters by desirability first")
    return cg


def shift_maximal_losing(g: Game) -> tuple[Coalition, ...]:
    """Losing coalitions of a sorted complete game whose every one-step
    strengthening wins.  Like shift_minimal_winning, it refuses a game
    that is not shift-closed."""
    e = to_explicit(g)
    shift_minimal_winning(e)
    return _mask_lists(_shift_family(e.np_table[None, :], e.n, False))[0]


def add_null_voters(g: Game, k: int) -> Game:
    """Append k voters with no influence, preserving the representation."""
    if k < 0:
        raise ValueError("cannot remove voters")
    if k == 0:
        return g
    if isinstance(g, WeightedGame):
        return WeightedGame(g.quota, g.weights + (Fraction(0),) * k)
    if isinstance(g, CompleteGame):
        return CompleteGame(g.n + k, g.shift_minimal, validate=False)
    if isinstance(g, BoolCombo):
        return BoolCombo(g.op, tuple(add_null_voters(p, k) for p in g.parts))
    if isinstance(g, ExplicitGame):
        return ExplicitGame(g.n + k, np.tile(g.np_table, 1 << k).tobytes(), validate=False)
    raise TypeError(f"not a game: {g!r}")


# ---------------------------------------------------------------------------
# Weightedness: a weighted game is complete, and sorted strongest-first its
# unknowns are the weight differences w_j - w_(j+1) >= 0 and the quota.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _prefix_counts(n: int) -> np.ndarray:
    """Row m: how many of the strongest 1, 2, ..., n voters coalition m holds."""
    return np.ascontiguousarray(_prefix_rows(range(1 << n), n).T, dtype=np.int64)


def _difference_systems(n: int, win: np.ndarray, lose: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per game (a row of win and lose), exactlp.solve_block's (coeffs,
    rhs): its shift-minimal winning rows, then its shift-maximal losing
    ones a unit below the quota, each in ascending mask order.  Every
    entry is a prefix count, at most n, or -1, 0 or 1, so both are int8."""
    games = len(win)
    n_win = win.sum(axis=1)
    rows = int((n_win + lose.sum(axis=1)).max(initial=0))
    coeffs = np.zeros((games, rows, n + 1), dtype=np.int8)
    rhs = np.zeros((games, rows), dtype=np.int8)
    counts = _prefix_counts(n).astype(np.int8)
    for family, sign, offset in ((win, 1, np.zeros_like(n_win)), (lose, -1, n_win)):
        g, mask = np.nonzero(family)
        pos = np.arange(len(g)) - np.searchsorted(g, g) + offset[g]
        coeffs[g, pos, :n] = sign * counts[mask]
        coeffs[g, pos, n] = -sign
        if sign < 0:
            rhs[g, pos] = 1
    return coeffs, rhs


def _certificates(n: int, coeffs: np.ndarray, nums: np.ndarray, dens: np.ndarray) -> np.ndarray:
    """The reduced (quota, weights...) int64 row of each solution
    x = nums / dens of its _difference_systems coeffs: x in integers,
    suffix sums as weights, the quota tight at the lightest shift-minimal
    winning coalition, gcd 1."""
    dens = dens[:, None]
    scale = np.lcm.reduce(dens // np.gcd(nums, dens), axis=1)
    diffs = (nums // (dens[:, 0] // scale)[:, None])[:, :n]
    weights = np.cumsum(diffs[:, ::-1], axis=1)[:, ::-1]
    # A winning row is its coalition's prefix counts, then -1; its weight
    # is the counts times the differences.  Other rows give way to the
    # grand coalition's weight, which no coalition exceeds.
    rows = (coeffs[:, :, :n] @ diffs[:, :, None])[:, :, 0]
    quota = np.where(coeffs[:, :, n] < 0, rows, weights.sum(axis=1)[:, None]).min(axis=1)
    certs = np.column_stack([quota, weights])
    certs = certs // np.gcd.reduce(certs, axis=1)[:, None]
    return certs.astype(np.int64, copy=False)


def is_weighted(g: Game) -> WeightedGame | None:
    """Weighted representation of the game, or None when none exists.

    A game that is_complete rejects is not weighted (Taylor & Zwicker,
    Proc. AMS 115, 1992).  A complete game, sorted strongest-first, gets
    the system and certificate that enumeration.classify_weighted_chunk
    gives it in a catalog chunk, mapped back to its own voters.  Complete
    games above MAX_SHIFT_TABLE_VOTERS = 14 voters raise ValueError.
    """
    e = to_explicit(g)
    ok, perm = is_complete(e)
    if not ok:
        return None
    n = e.n
    table = _relabelled(e, perm).np_table[None, :]
    coeffs, rhs = _difference_systems(n, _shift_family(table, n, True), _shift_family(table, n, False))
    x = solve_nonneg_geq(n + 1, list(zip(coeffs[0].tolist(), rhs[0].tolist())))
    if x is None:
        return None
    den = math.lcm(*(v.denominator for v in x))
    nums = np.array([[int(v * den) for v in x]])
    quota, *weights = _certificates(n, coeffs, nums, np.ones(1, dtype=np.int64))[0].tolist()
    return WeightedGame(quota, [weights[perm.index(v)] for v in range(1, n + 1)])


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

MAX_ORBIT_VOTERS = 7


def canonical_table(g: Game) -> ExplicitGame:
    """A labelling-independent explicit form.

    Complete games are sorted strongest-first, which is already unique.
    Other games take the lexicographically smallest table over all voter
    relabellings, practical only for n <= 7.
    """
    e = to_explicit(g)
    ok, perm = is_complete(e)
    if ok:
        return _relabelled(e, perm)
    if e.n > MAX_ORBIT_VOTERS:
        raise ValueError(f"canonical form of an incomplete game needs n <= {MAX_ORBIT_VOTERS}")
    cube = e.np_table.reshape((2,) * e.n)  # a relabelling permutes its axes
    best = min(cube.transpose(axes).tobytes() for axes in permutations(range(e.n)))
    return ExplicitGame(e.n, best, validate=False)
