"""Exact reliability of systems with redundant, component-sharing functions.

The package models systems where each required function can be served by
several alternative implementations built from shared components, computes
exact reliability either over the full selection product space or over the
far smaller family of covering selections, predicts term counts for both
routes, and provides Dawson-Sankoff moment bounds together with a search
for cases where those bounds mis-rank systems.
"""

import importlib

# Each submodule and the public names it provides.  `import relcover` runs
# none of them: `__getattr__` imports a submodule the first time it or one of
# its names is looked up, and keeps what it found in the package namespace.
_EXPORTS = {
    "bench": ("BenchRow", "bench_system", "rows_to_csv", "run_bench"),
    "bounds": (
        "BoundSummary", "SearchConfig", "WitnessPair", "bound_summary",
        "dawson_sankoff_bound", "exact_union_probability",
        "nonmonotonicity_search", "pairwise_sums",
    ),
    "combinatorics": (
        "alternating_coefficient_sum", "coefficient_count",
        "coefficient_count_bruteforce", "count_covering_selections",
        "count_terms_classical", "count_terms_simplified",
        "enumerate_covering_selections", "subset_product_size",
    ),
    "errors": ("CapExceeded", "EvaluationTimeout", "GenerationError", "InvalidSystemError"),
    "evaluate": (
        "EvaluationReport", "Method", "TermEvent", "aggregate_terms",
        "reliability_classical", "reliability_monte_carlo",
        "reliability_simplified", "term_stream",
    ),
    "network": ("DoorNetwork", "minimal_paths"),
    "system": (
        "Component", "ComponentId", "FamilyShape", "Implementation", "SystemSpec",
        "ValidationReport", "Violation", "door_functions", "dumps_system",
        "generate_random_system", "implementation_probability",
        "intersection_probability", "load_system", "save_system",
        "system_from_dict", "system_to_dict", "validate_system",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    module = _OWNER.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
