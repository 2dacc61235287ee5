"""Exact-arithmetic toolkit for binary voting games.

Represents weighted, complete simple, explicit, and Boolean-combined
games; computes Shapley-Shubik and Penrose-Banzhaf power distributions
as exact rationals; enumerates all weighted and complete simple games
for small voter counts with certified counts; measures how far complete
simple games sit from their best weighted approximations; and solves
inverse problems (find a weighted game matching a target distribution).
"""

from .certified import CountMismatchError
from .council import council_game, parse_populations
from .enumeration import (
    CatalogFormatError,
    check_certified_count,
    enumerate_simple4,
    iter_complete_chunks,
    read_catalog,
)
from .games import (
    BoolCombo,
    CompleteGame,
    DesirabilityOutcome,
    ExplicitGame,
    Game,
    GameParseError,
    WeightedGame,
    add_null_voters,
    canonical_table,
    coalition_mask,
    coalition_members,
    desirability,
    dominates,
    evaluate,
    game_to_text,
    is_complete,
    is_weighted,
    parse_game,
    shift_maximal_losing,
    shift_minimal_winning,
    sort_by_desirability,
    to_explicit,
)
from .geometry import (
    GapReport,
    GapTracker,
    Metric,
    VectorStore,
    distance,
    store_from_rows,
)
from .indices import (
    KINDS,
    PowerVector,
    decimal_str,
    pbi,
    pbi_dp,
    power_vector,
    ssi,
    ssi_dp,
)
from .inverse import (
    InverseMode,
    InverseResult,
    PaddedSearchReport,
    beta_target,
    inverse_exact,
    inverse_heuristic,
    padded_target_search,
    parse_target_file,
)
from .pipeline import (
    build_big_tables,
    build_tier,
    default_cache_dir,
    ensure_tier,
    load_games,
    omega_tier,
    weighted_store,
)

__version__ = "0.1.0"

__all__ = [
    "BoolCombo",
    "CatalogFormatError",
    "CompleteGame",
    "CountMismatchError",
    "DesirabilityOutcome",
    "ExplicitGame",
    "Game",
    "GameParseError",
    "GapReport",
    "GapTracker",
    "InverseMode",
    "InverseResult",
    "KINDS",
    "Metric",
    "PaddedSearchReport",
    "PowerVector",
    "VectorStore",
    "WeightedGame",
    "add_null_voters",
    "beta_target",
    "build_big_tables",
    "build_tier",
    "canonical_table",
    "check_certified_count",
    "coalition_mask",
    "coalition_members",
    "council_game",
    "decimal_str",
    "default_cache_dir",
    "desirability",
    "distance",
    "dominates",
    "ensure_tier",
    "enumerate_simple4",
    "evaluate",
    "game_to_text",
    "inverse_exact",
    "inverse_heuristic",
    "is_complete",
    "is_weighted",
    "iter_complete_chunks",
    "load_games",
    "omega_tier",
    "padded_target_search",
    "parse_game",
    "parse_populations",
    "parse_target_file",
    "pbi",
    "pbi_dp",
    "power_vector",
    "read_catalog",
    "shift_maximal_losing",
    "shift_minimal_winning",
    "sort_by_desirability",
    "ssi",
    "ssi_dp",
    "store_from_rows",
    "to_explicit",
    "weighted_store",
]
