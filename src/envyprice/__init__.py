"""Exact computation of the price of envy-freeness for n agents, n items.

Everything is exact rational arithmetic: the solver searches the compact
histogram program, an independent vertex-configuration oracle cross-checks
it, witnesses reconstruct to concrete utility matrices certified by the
core evaluators, and closed-form bounds sandwich every value.
"""

from .bounds import (
    BoundReport,
    bound_report,
    check_lower_bound,
    check_upper_bound,
    construction_ratio,
    explore_witness,
    g_of_d,
    lower_construction,
    upper_g_max,
)
from .core import (
    Allocation,
    RatioSearchFailed,
    UtilityMatrix,
    WelfareReport,
    allocation_welfare,
    envy_free_matching,
    envy_free_optimal_exhaustive,
    envy_free_optimal_welfare,
    format_rational,
    is_envy_free,
    optimal_welfare,
    parse_rational,
    price_ratio,
    read_instance,
    write_instance,
)
from .oracle import (
    VertexConfig,
    fuzz_instances,
    oracle_p_nn,
    realize_config,
)
from .solver import (
    KNOWN_RATIOS,
    Search,
    SolveOptions,
    StructuredWitness,
    read_witness,
    solve_alpha,
    solve_p_nn,
    write_witness,
)
from .structure import build_witness_matrix

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "RatioSearchFailed",
    "UtilityMatrix",
    "WelfareReport",
    "allocation_welfare",
    "envy_free_matching",
    "envy_free_optimal_exhaustive",
    "envy_free_optimal_welfare",
    "format_rational",
    "is_envy_free",
    "optimal_welfare",
    "parse_rational",
    "price_ratio",
    "read_instance",
    "write_instance",
    "build_witness_matrix",
    "KNOWN_RATIOS",
    "Search",
    "SolveOptions",
    "StructuredWitness",
    "read_witness",
    "solve_alpha",
    "solve_p_nn",
    "write_witness",
    "VertexConfig",
    "fuzz_instances",
    "oracle_p_nn",
    "realize_config",
    "BoundReport",
    "bound_report",
    "check_lower_bound",
    "check_upper_bound",
    "construction_ratio",
    "explore_witness",
    "g_of_d",
    "lower_construction",
    "upper_g_max",
]
