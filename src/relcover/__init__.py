"""Exact reliability of systems with redundant, component-sharing functions.

The package models systems where each required function can be served by
several alternative implementations built from shared components, computes
exact reliability either over the full selection product space or over the
far smaller family of covering selections, predicts term counts for both
routes, and provides Dawson-Sankoff moment bounds together with a search
for cases where those bounds mis-rank systems.
"""

from .bench import BenchRow, bench_system, run_bench, rows_to_csv
from .bounds import (
    BoundSummary,
    SearchConfig,
    WitnessPair,
    bound_summary,
    dawson_sankoff_bound,
    exact_union_probability,
    nonmonotonicity_search,
    pairwise_sums,
)
from .combinatorics import (
    alternating_coefficient_sum,
    coefficient_count,
    coefficient_count_bruteforce,
    count_covering_selections,
    count_terms_classical,
    count_terms_simplified,
    enumerate_covering_selections,
    subset_product_size,
)
from .errors import CapExceeded, EvaluationTimeout, GenerationError, InvalidSystemError
from .evaluate import (
    EvaluationReport,
    Method,
    TermEvent,
    aggregate_terms,
    reliability_classical,
    reliability_monte_carlo,
    reliability_simplified,
    term_stream,
)
from .network import DoorNetwork, minimal_paths
from .system import (
    Component,
    ComponentId,
    FamilyShape,
    Implementation,
    SystemSpec,
    ValidationReport,
    Violation,
    door_functions,
    dumps_system,
    generate_random_system,
    implementation_probability,
    intersection_probability,
    load_system,
    save_system,
    system_from_dict,
    system_to_dict,
    validate_system,
)

__all__ = [
    "BenchRow",
    "BoundSummary",
    "CapExceeded",
    "Component",
    "ComponentId",
    "DoorNetwork",
    "EvaluationReport",
    "EvaluationTimeout",
    "FamilyShape",
    "GenerationError",
    "Implementation",
    "InvalidSystemError",
    "Method",
    "SearchConfig",
    "SystemSpec",
    "TermEvent",
    "ValidationReport",
    "Violation",
    "WitnessPair",
    "aggregate_terms",
    "alternating_coefficient_sum",
    "bench_system",
    "bound_summary",
    "coefficient_count",
    "coefficient_count_bruteforce",
    "count_covering_selections",
    "count_terms_classical",
    "count_terms_simplified",
    "dawson_sankoff_bound",
    "door_functions",
    "dumps_system",
    "enumerate_covering_selections",
    "exact_union_probability",
    "generate_random_system",
    "implementation_probability",
    "intersection_probability",
    "load_system",
    "minimal_paths",
    "nonmonotonicity_search",
    "pairwise_sums",
    "reliability_classical",
    "reliability_monte_carlo",
    "reliability_simplified",
    "rows_to_csv",
    "run_bench",
    "save_system",
    "subset_product_size",
    "system_from_dict",
    "system_to_dict",
    "term_stream",
    "validate_system",
]
