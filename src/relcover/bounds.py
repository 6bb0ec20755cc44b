"""Dawson-Sankoff lower bounds on single-function reliability.

For one function with events E_1..E_t (its implementations working) and
S1 = sum P(E_j), S2 = sum_{i<j} P(E_i and E_j), the Dawson-Sankoff bound is

    P(union) >= theta * S1^2 / (2 S2 + (2 - theta) S1)
              + (1 - theta) * S1^2 / (2 S2 + (1 - theta) S1)

with theta the fractional part of 2 S2 / S1.  Dropping theta (setting it to
0) gives the weaker closed form S1^2 / (2 S2 + S1).

The bound is cheap but not monotone against the exact value: of two systems
the one with the higher exact reliability can carry the lower bound value,
so ranking designs by the bound is unsafe.  `nonmonotonicity_search` hunts
for concrete witness pairs of that inversion.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .combinatorics import simplified_terms_within
from .evaluate import DEFAULT_TERM_CAP, _group_sum, reliability_simplified
from .system import FamilyShape, SystemSpec, generate_random_system, mask_product, prepared

# A witness pair must beat both orderings by more than this, so knife-edge
# pairs stay out and witnesses survive re-evaluation by the classical route.
WITNESS_MARGIN = 1e-12


@dataclass(frozen=True)
class BoundSummary:
    s1: float
    s2: float
    theta: float
    bound_full: float
    bound_relaxed: float


@dataclass(frozen=True)
class SearchConfig:
    """Shape of the random single-function systems the witness search draws."""

    events: int = 3
    components: int = 5
    sharing: float = 0.5
    max_impl_size: int = 3


@dataclass(frozen=True)
class WitnessPair:
    """Two systems where the exact ordering and the bound ordering disagree:
    low has the smaller exact reliability but the larger relaxed bound."""

    trial: int
    low: SystemSpec
    high: SystemSpec
    reliability_low: float
    reliability_high: float
    bound_low: float
    bound_high: float


def _single_function_masks(spec: SystemSpec) -> tuple[tuple[int, ...], tuple[float, ...]]:
    # Bounds work on one function's events.  Identical component sets within
    # the function are legitimate here (two events may be the same event), so
    # only the other validation rules apply.
    if len(spec.functions) != 1:
        raise ValueError("bounds are defined for single-function systems")
    masks, reliabilities = prepared(spec, duplicates_ok=True)
    return masks[0], reliabilities


def pairwise_sums(spec: SystemSpec) -> tuple[float, float]:
    """S1 and S2 over the single function's implementation events.

    Duplicate component sets are tolerated and counted as distinct events:
    two identical events with probability p contribute 2p to S1 and p to S2.
    """
    masks, reliabilities = _single_function_masks(spec)
    s1 = 0.0
    for m in masks:
        s1 += mask_product(m, reliabilities)
    s2 = 0.0
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            s2 += mask_product(masks[i] | masks[j], reliabilities)
    return s1, s2


def dawson_sankoff_bound(s1: float, s2: float) -> BoundSummary:
    """Both bound variants from the first two binomial moments."""
    if s1 <= 0.0:
        raise ValueError("S1 must be positive")
    if s2 < 0.0:
        raise ValueError("S2 cannot be negative")
    ratio = 2.0 * s2 / s1
    theta = ratio - math.floor(ratio)
    full = (
        theta * s1 * s1 / (2.0 * s2 + (2.0 - theta) * s1)
        + (1.0 - theta) * s1 * s1 / (2.0 * s2 + (1.0 - theta) * s1)
    )
    relaxed = s1 * s1 / (2.0 * s2 + s1)
    return BoundSummary(s1=s1, s2=s2, theta=theta, bound_full=full, bound_relaxed=relaxed)


def bound_summary(spec: SystemSpec) -> BoundSummary:
    s1, s2 = pairwise_sums(spec)
    return dawson_sankoff_bound(s1, s2)


def exact_union_probability(spec: SystemSpec) -> float:
    """Exact P(union of the single function's events), by inclusion-exclusion.

    This is the simplified evaluator's engine on one function, with its
    caps: the 2^t - 1 signed unions of the t events, summed with `math.fsum`.
    Like pairwise_sums it is indifferent to duplicate component sets, so it
    can sit next to the bound for any spec the bound accepts.
    """
    masks, reliabilities = _single_function_masks(spec)
    simplified_terms_within(spec.shape, DEFAULT_TERM_CAP)
    return _group_sum([masks], reliabilities)[0]


def nonmonotonicity_search(
    config: SearchConfig, trials: int, seed: int
) -> list[WitnessPair]:
    """Hunt for pairs where the bound ordering contradicts the exact ordering.

    Each trial draws two random single-function systems and keeps the pair
    when the system with strictly smaller exact reliability has the strictly
    larger relaxed bound, both by more than WITNESS_MARGIN.  Deterministic
    per seed; a negative seed raises ValueError.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    shape = FamilyShape((config.events,))
    rng = random.Random(seed)
    witnesses: list[WitnessPair] = []
    for trial in range(trials):
        seed_x = rng.randrange(1 << 62)
        seed_y = rng.randrange(1 << 62)
        x = generate_random_system(
            shape,
            config.components,
            config.sharing,
            seed_x,
            max_impl_size=config.max_impl_size,
            name=f"search-{seed}-{trial}-x",
        )
        y = generate_random_system(
            shape,
            config.components,
            config.sharing,
            seed_y,
            max_impl_size=config.max_impl_size,
            name=f"search-{seed}-{trial}-y",
        )
        rel_x = reliability_simplified(x).reliability
        rel_y = reliability_simplified(y).reliability
        low, high = (x, y) if rel_x <= rel_y else (y, x)
        rel_low, rel_high = min(rel_x, rel_y), max(rel_x, rel_y)
        lb_low = bound_summary(low).bound_relaxed
        lb_high = bound_summary(high).bound_relaxed
        if rel_low < rel_high - WITNESS_MARGIN and lb_low > lb_high + WITNESS_MARGIN:
            witnesses.append(
                WitnessPair(
                    trial=trial,
                    low=low,
                    high=high,
                    reliability_low=rel_low,
                    reliability_high=rel_high,
                    bound_low=lb_low,
                    bound_high=lb_high,
                )
            )
    return witnesses
