"""Exact and sampled system reliability.

Three routes to P(every function has a working implementation):

* classical: inclusion-exclusion over all non-empty subsets of the product
  space W of one-per-function selections, 2^|W| - 1 signed terms.  Kept as
  the intentionally expensive baseline and cross-check.
* simplified: one signed term per covering selection, sign (-1)^(k - n) for
  cardinality k, prod (2^{t_i} - 1) terms in total.
* monte_carlo: per-component Bernoulli sampling.

Both exact routes reduce to one map {union mask: net coefficient}.  The
covering-selection sign (-1)^(k - n) is the product of the per-function
signs (-1)^(|S_i| - 1), so the simplified route folds one signed union map
per function by OR-convolution and merges equal masks as they appear; the
classical route accumulates its subset unions into the same kind of map.
The map is summed as coefficient times the product of component
reliabilities with `math.fsum`, which is correctly rounded and therefore
order-independent: equal maps give bit-identical results, run to run and
route to route.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import combinatorics as comb_mod
from .errors import CapExceeded, EvaluationTimeout, InvalidSystemError
from .system import SystemSpec, mask_product, reliability_array, validate_system

# Exact evaluators refuse term counts beyond this unless overridden.
DEFAULT_TERM_CAP = (1 << 24) - 1

# Subset unions over this many low counter bits come from one prefix table.
_TABLE_BITS = 16

_MC_CHUNK = 1 << 17


class Method(str, Enum):
    CLASSICAL = "classical"
    SIMPLIFIED = "simplified"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class TermEvent:
    """One signed term: coefficient times the product over component_mask."""

    component_mask: int
    coefficient: int


@dataclass(frozen=True)
class EvaluationReport:
    method: Method
    reliability: float
    term_count: int
    distinct_product_count: int
    wall_time: float
    standard_error: float | None = None
    samples: int | None = None

    @property
    def display_reliability(self) -> float:
        """Clamped to [0, 1] for printing; the stored value keeps the raw sum."""
        return min(1.0, max(0.0, self.reliability))


def _prepare(spec: SystemSpec) -> tuple[list[list[int]], list[float]]:
    report = validate_system(spec)
    if not report.ok:
        raise InvalidSystemError(report.violations)
    masks = [[impl.mask for impl in function] for function in spec.functions]
    return masks, reliability_array(spec)


def _check_term_cap(term_count: int, cap_terms: int | None) -> None:
    if cap_terms is not None and term_count > cap_terms:
        raise CapExceeded(f"{term_count} terms exceeds the cap {cap_terms}")


def _signed_unions(masks: Sequence[int]) -> Iterator[tuple[int, int]]:
    """(union of S, (-1)^(|S| - 1)) for every non-empty subset S of masks.

    Subsets come in ascending binary-counter order, bit j standing for
    masks[j].  The low bits of the counter come from a prefix table built
    once; the high bits are OR-ed in once per outer step, so one path serves
    any width.
    """
    low = [(0, -1)]
    for m in masks[:_TABLE_BITS]:
        low += [(union | m, -sign) for union, sign in low]
    yield from low[1:]
    high_masks = masks[_TABLE_BITS:]
    for hi in range(1, 1 << len(high_masks)):
        high, rest = 0, hi
        while rest:
            bit = rest & -rest
            high |= high_masks[bit.bit_length() - 1]
            rest ^= bit
        flip = -1 if hi.bit_count() & 1 else 1
        for union, sign in low:
            yield union | high, sign * flip


def _signed_map(masks: Sequence[int]) -> dict[int, int]:
    own: dict[int, int] = {}
    for union, sign in _signed_unions(masks):
        own[union] = own.get(union, 0) + sign
    return own


def _fold(functions: list[list[int]]) -> dict[int, int]:
    """{union mask: net coefficient} over every covering selection.

    OR-convolution of one signed union map per function.  Zero entries are
    kept, so the keys are exactly the distinct covering-selection unions.
    """
    total = _signed_map(functions[0])
    for masks in functions[1:]:
        own = _signed_map(masks)
        merged: dict[int, int] = {}
        for a, ca in total.items():
            for b, cb in own.items():
                key = a | b
                merged[key] = merged.get(key, 0) + ca * cb
        total = merged
    return total


def _signed_sum(coefficients: dict[int, int], reliabilities: list[float]) -> float:
    """Correctly rounded sum of c * P(mask), so the map's order never matters."""
    return math.fsum(
        c * mask_product(mask, reliabilities) for mask, c in coefficients.items() if c
    )


def reliability_simplified(
    spec: SystemSpec, cap_terms: int | None = DEFAULT_TERM_CAP
) -> EvaluationReport:
    """Exact reliability via covering selections.

    Sums (-1)^(k - n) * P(all selected implementations work) over covering
    selections of every cardinality k = n..m, with selections of equal union
    mask merged as the functions are folded together.
    """
    start = time.perf_counter()
    masks, reliabilities = _prepare(spec)
    term_count = comb_mod.count_terms_simplified(spec.shape)
    _check_term_cap(term_count, cap_terms)
    coefficients = _fold(masks)
    return EvaluationReport(
        method=Method.SIMPLIFIED,
        reliability=_signed_sum(coefficients, reliabilities),
        term_count=term_count,
        distinct_product_count=len(coefficients),
        wall_time=time.perf_counter() - start,
    )


def _point_masks(masks: list[list[int]]) -> list[int]:
    points = [0]
    for function_masks in masks:
        points = [p | m for p in points for m in function_masks]
    return points


def reliability_classical(
    spec: SystemSpec,
    cap_terms: int | None = DEFAULT_TERM_CAP,
    budget_seconds: float | None = None,
) -> EvaluationReport:
    """Exact reliability via inclusion-exclusion over subsets of W.

    Enumerates subsets of W with `_signed_unions` and merges equal union
    masks before summing.  `budget_seconds` aborts long runs with
    EvaluationTimeout; the benchmark treats that as a data point rather than
    a failure.
    """
    start = time.perf_counter()
    masks, reliabilities = _prepare(spec)
    shape = spec.shape
    term_count = comb_mod.count_terms_classical(shape)
    _check_term_cap(term_count, cap_terms)

    total_subsets = (1 << shape.product_size) - 1
    coefficients: dict[int, int] = {}
    for s, (union, sign) in enumerate(_signed_unions(_point_masks(masks)), 1):
        if budget_seconds is not None and (s & 8191) == 0:
            elapsed = time.perf_counter() - start
            if elapsed > budget_seconds:
                raise EvaluationTimeout(
                    f"classical evaluation aborted after {elapsed:.1f}s, "
                    f"{s} of {total_subsets} subsets done"
                )
        coefficients[union] = coefficients.get(union, 0) + sign

    return EvaluationReport(
        method=Method.CLASSICAL,
        reliability=_signed_sum(coefficients, reliabilities),
        term_count=term_count,
        distinct_product_count=len(coefficients),
        wall_time=time.perf_counter() - start,
    )


def reliability_monte_carlo(
    spec: SystemSpec, samples: int, seed: int
) -> EvaluationReport:
    """Estimate reliability by sampling component states.

    Each sample draws every component up/down independently; the system
    counts as up when every function has an implementation with all its
    components up.  Returns the hit rate and its binomial standard error.
    Deterministic for a fixed seed.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    start = time.perf_counter()
    _, reliabilities = _prepare(spec)
    rel = np.asarray(reliabilities)
    functions = [
        [np.fromiter(sorted(impl.components), dtype=np.int64) for impl in function]
        for function in spec.functions
    ]

    rng = np.random.default_rng(seed)
    hits = 0
    remaining = samples
    while remaining > 0:
        chunk = min(remaining, _MC_CHUNK)
        up = rng.random((chunk, rel.size)) < rel
        ok = np.ones(chunk, dtype=bool)
        for function in functions:
            function_up = np.zeros(chunk, dtype=bool)
            for comp_ids in function:
                function_up |= up[:, comp_ids].all(axis=1)
            ok &= function_up
        hits += int(ok.sum())
        remaining -= chunk

    mean = hits / samples
    stderr = (mean * (1.0 - mean) / samples) ** 0.5
    return EvaluationReport(
        method=Method.MONTE_CARLO,
        reliability=mean,
        term_count=samples,
        distinct_product_count=0,
        wall_time=time.perf_counter() - start,
        standard_error=stderr,
        samples=samples,
    )


def term_stream(
    spec: SystemSpec,
    method: Method | str = Method.SIMPLIFIED,
    cap_terms: int | None = DEFAULT_TERM_CAP,
) -> Iterator[TermEvent]:
    """Signed terms of an exact method, in its canonical evaluation order.

    Aggregating coefficients by component_mask and summing
    coefficient * prod(a_c) reproduces the method's reliability; the two
    exact methods aggregate to identical coefficient maps.
    """
    method = Method(method)
    masks, _ = _prepare(spec)
    shape = spec.shape

    if method is Method.SIMPLIFIED:
        _check_term_cap(comb_mod.count_terms_simplified(shape), cap_terms)

        def simplified() -> Iterator[TermEvent]:
            n, m = shape.n, shape.m
            for k in range(n, m + 1):
                coeff = 1 if (k - n) % 2 == 0 else -1
                for per_function in comb_mod._covering_index_tuples(shape, k):
                    union = 0
                    for i, chosen in enumerate(per_function):
                        for j in chosen:
                            union |= masks[i][j]
                    yield TermEvent(union, coeff)

        return simplified()

    if method is Method.CLASSICAL:
        _check_term_cap(comb_mod.count_terms_classical(shape), cap_terms)
        return (TermEvent(u, sign) for u, sign in _signed_unions(_point_masks(masks)))

    raise ValueError("term streams exist only for the exact methods")


def aggregate_terms(events: Iterable[TermEvent]) -> dict[int, int]:
    """Net coefficient per component mask; zero entries are dropped."""
    out: dict[int, int] = {}
    for event in events:
        out[event.component_mask] = out.get(event.component_mask, 0) + event.coefficient
    return {mask: coeff for mask, coeff in out.items() if coeff}
