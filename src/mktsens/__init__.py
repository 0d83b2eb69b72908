"""Organized sensitivity analysis of antitrust market definitions.

Evaluates concentration and pricing-pressure metrics over every candidate
market in an exclusion-set lattice, renders annotated Hasse diagrams, and
attributes outcome changes to individual firms or formats through Shapley
values and Shapley-Shubik power indices, statewide and in local circle
markets.
"""

import os

# mktsens's one BLAS call is a vector dot: one OpenBLAS thread spares numpy's
# import its worker pool and keeps the dot's rounding off the core count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import RunConfig, load_config
from .errors import (
    CapacityError,
    ConfigError,
    DataError,
    DegenerateMarketError,
    MktsensError,
    OutcomeEvaluationError,
)
from .geomarket import (
    CircleMarket,
    LocalAnalysisResult,
    Store,
    StoreUniverse,
    analyze_local,
    chain_market,
    circle_market,
    haversine,
    miles_to_km,
    sspi_structure_table,
)
from .ingest import load_stores
from .lattice import (
    AnnotatedHasseDiagram,
    ExclusionSet,
    MarginalSet,
    build_hasse,
    canonical_masks,
    covers,
    diagram_from_json,
    enumerate_subsets,
    hasse_from_table,
    iter_dot,
    iter_json,
    restrict,
    subset_label,
    to_dot,
    to_json,
)
from .metrics import (
    MarginData,
    Market,
    MergerSpec,
    PresumptionRule,
    cmcr,
    concentration_ratio,
    delta_hhi,
    diversion_ratio,
    exclude,
    hhi,
    merger_outcome_blocks,
    merger_outcomes,
    post_merger_hhi,
    presumption,
    presumption_flags,
    shares,
    upp,
)
from .reports import (
    FirmReport,
    LocalReport,
    StateReport,
    run_firm_level,
    run_local,
    run_state,
    state_diagram,
    write_firm_report,
    write_hasse_report,
    write_local_report,
    write_state_report,
)
from .shapley import (
    CoalitionalGame,
    ShapleyResult,
    SimpleGame,
    characteristic_from_outcome,
    shapley_exact,
    shapley_sampled,
    simple_game_from_rule,
    sspi,
)

__version__ = "0.1.0"

__all__ = [
    "AnnotatedHasseDiagram",
    "CapacityError",
    "CircleMarket",
    "CoalitionalGame",
    "ConfigError",
    "DataError",
    "DegenerateMarketError",
    "ExclusionSet",
    "FirmReport",
    "LocalAnalysisResult",
    "LocalReport",
    "MarginData",
    "MarginalSet",
    "Market",
    "MergerSpec",
    "MktsensError",
    "OutcomeEvaluationError",
    "PresumptionRule",
    "RunConfig",
    "ShapleyResult",
    "SimpleGame",
    "StateReport",
    "Store",
    "StoreUniverse",
    "analyze_local",
    "build_hasse",
    "canonical_masks",
    "chain_market",
    "characteristic_from_outcome",
    "circle_market",
    "cmcr",
    "concentration_ratio",
    "covers",
    "delta_hhi",
    "diagram_from_json",
    "diversion_ratio",
    "enumerate_subsets",
    "exclude",
    "hasse_from_table",
    "iter_dot",
    "iter_json",
    "haversine",
    "hhi",
    "load_config",
    "load_stores",
    "merger_outcome_blocks",
    "merger_outcomes",
    "miles_to_km",
    "post_merger_hhi",
    "presumption",
    "presumption_flags",
    "restrict",
    "run_firm_level",
    "run_local",
    "run_state",
    "shapley_exact",
    "shapley_sampled",
    "shares",
    "simple_game_from_rule",
    "sspi",
    "sspi_structure_table",
    "state_diagram",
    "subset_label",
    "to_dot",
    "to_json",
    "upp",
    "write_firm_report",
    "write_hasse_report",
    "write_local_report",
    "write_state_report",
]
