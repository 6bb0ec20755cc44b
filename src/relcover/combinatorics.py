"""Term counts of the two exact evaluation routes, and reference enumerations.

The classical route expands inclusion-exclusion over W, the product space
of one-implementation-per-function selections, and touches 2^|W| - 1 terms
with |W| = prod t_i.  The simplified route sums over covering selections:
sets of k distinct implementations, n <= k <= m, that hit every function at
least once.  Their total count is prod (2^{t_i} - 1), exponentially smaller.

All counters use exact integers; the interesting values overflow any fixed
width long before the evaluators give up.  `coefficient_count` computes how
many t-subsets of the product space of a disjoint set family cover the whole
family, via an alternating binomial sum, and
`coefficient_count_bruteforce` recounts the same quantity by exhaustive
dynamic programming over the family's product elements so the formula can be
checked against an independent route.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Hashable, Iterable, Iterator, Sequence

from .errors import CapExceeded
from .system import FamilyShape

# coefficient_count_bruteforce refuses product spaces larger than this.
DEFAULT_BRUTEFORCE_CAP = 22


@dataclass(frozen=True)
class CoveringSelection:
    """A set of distinct implementations covering every function.

    `chosen` holds (function_index, impl_index) pairs, sorted, no repeats.
    """

    chosen: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.chosen:
            raise ValueError("empty covering selection")
        if list(self.chosen) != sorted(set(self.chosen)):
            raise ValueError("selection pairs must be sorted and distinct")

    @property
    def k(self) -> int:
        return len(self.chosen)

    def functions_covered(self) -> frozenset[int]:
        return frozenset(fi for fi, _ in self.chosen)


@dataclass(frozen=True)
class DisjointFamily:
    """Pairwise disjoint non-empty blocks A_1, ..., A_n of hashable elements."""

    blocks: tuple[frozenset[Hashable], ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("family needs at least one block")
        seen: set[Hashable] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("blocks must be non-empty")
            if seen & block:
                raise ValueError("blocks must be pairwise disjoint")
            seen |= block

    @classmethod
    def of_sizes(cls, sizes: Sequence[int]) -> "DisjointFamily":
        """Integer-labelled family with the given block sizes."""
        blocks = []
        start = 0
        for s in sizes:
            blocks.append(frozenset(range(start, start + s)))
            start += s
        return cls(tuple(blocks))

    @property
    def universe(self) -> frozenset[Hashable]:
        out: set[Hashable] = set()
        for block in self.blocks:
            out |= block
        return frozenset(out)

    @property
    def k(self) -> int:
        """|A| = sum of block sizes."""
        return sum(len(b) for b in self.blocks)

    def elements(self) -> tuple[Hashable, ...]:
        """Universe in canonical order: block by block, sorted within."""
        out: list[Hashable] = []
        for block in self.blocks:
            out.extend(sorted(block))
        return tuple(out)

    def product_size(self) -> int:
        """|D| = prod |A_i|, the number of one-per-block choices."""
        out = 1
        for block in self.blocks:
            out *= len(block)
        return out


def _function_subsets(sizes: Sequence[int]) -> list[list[tuple[int, tuple[int, ...]]]]:
    # Per function: every non-empty subset of implementation indices as a
    # (size, indices) pair, ordered by size then lexicographically.  This
    # fixed ordering is the canonical order of enumerate_covering_selections.
    out = []
    for t in sizes:
        per: list[tuple[int, tuple[int, ...]]] = []
        for size in range(1, t + 1):
            per.extend((size, chosen) for chosen in itertools.combinations(range(t), size))
        out.append(per)
    return out


def enumerate_covering_selections(
    shape: FamilyShape, k: int
) -> Iterator[CoveringSelection]:
    """All covering selections of cardinality k, canonical order, no repeats.

    A covering selection takes a non-empty subset of each function's
    implementations, so each k-element cover comes once from an odometer
    over the per-function subset lists.  The walk is depth-first and enters
    a subset only while size k stays reachable, so no combination of
    another size is ever built.  No evaluator walks this enumeration; the
    tests use it as an independent reference for the evaluators' terms.
    """
    if not (shape.n <= k <= shape.m):
        raise ValueError(f"k must lie in [{shape.n}, {shape.m}], got {k}")
    subsets = _function_subsets(shape.sizes)
    n = len(subsets)
    # Most indices that functions i.. can still add; the fewest is n - i.
    most = list(itertools.accumulate(reversed(shape.sizes), initial=0))[::-1]

    def walk(i: int, room: int, prefix: tuple) -> Iterator[CoveringSelection]:
        for size, chosen in subsets[i]:
            rest = room - size
            if n - i - 1 <= rest <= most[i + 1]:
                pairs = prefix + tuple((i, j) for j in chosen)
                if i + 1 == n:
                    yield CoveringSelection(pairs)
                else:
                    yield from walk(i + 1, rest, pairs)

    return walk(0, k, ())


def count_covering_selections(shape: FamilyShape, k: int) -> int:
    """|C_k| without enumeration: coefficient of x^k in prod_i sum_s C(t_i, s) x^s."""
    if not (shape.n <= k <= shape.m):
        raise ValueError(f"k must lie in [{shape.n}, {shape.m}], got {k}")
    poly = [1]
    for t in shape.sizes:
        factor = [0] + [comb(t, s) for s in range(1, t + 1)]
        out = [0] * (len(poly) + len(factor) - 1)
        for i, a in enumerate(poly):
            if a:
                for j, b in enumerate(factor):
                    out[i + j] += a * b
        poly = out
    return poly[k] if k < len(poly) else 0


def count_terms_classical(shape: FamilyShape) -> int:
    """2^|W| - 1: non-empty subsets of the product space W."""
    return (1 << shape.product_size) - 1


def count_terms_simplified(shape: FamilyShape) -> int:
    """prod (2^{t_i} - 1): covering selections of every cardinality."""
    out = 1
    for t in shape.sizes:
        out *= (1 << t) - 1
    return out


def subset_product_size(family: DisjointFamily, subset: frozenset) -> int:
    """p(I, A) = prod |A_i  intersect  I| for I a subset of the universe."""
    if not subset <= family.universe:
        raise ValueError("subset contains elements outside the family")
    out = 1
    for block in family.blocks:
        out *= len(block & subset)
    return out


def coefficient_count(family: DisjointFamily, t: int) -> int:
    """Number of t-subsets of D = A_1 x ... x A_n whose coordinates cover A.

    Evaluated by the alternating sum
        c(A, t) = sum_{i=0}^{k-n} (-1)^i sum_{|I| = k-i} C(p(I, A), t)
    over subsets I of the universe, with p(I, A) = prod |A_i intersect I|.
    Exact integers throughout; t beyond |D| gives 0.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    k = family.k
    n = len(family.blocks)
    elements = family.elements()
    total = 0
    for i in range(k - n + 1):
        sign = -1 if i % 2 else 1
        for chosen in itertools.combinations(elements, k - i):
            total += sign * comb(subset_product_size(family, frozenset(chosen)), t)
    return total


def coefficient_count_bruteforce(
    family: DisjointFamily, t: int, cap: int = DEFAULT_BRUTEFORCE_CAP
) -> int:
    """Independent recount of coefficient_count, no alternating sum involved.

    Walks every element of D once and grows an exact table
    (covered elements of A, subset size) -> number of subsets,
    which is the whole 0/1 subset lattice of D folded by coverage.  The
    answer is the entry at (all of A, t).  Cost is |D| times the number of
    reachable coverage masks, so product spaces beyond `cap` are refused.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    d_size = family.product_size()
    if d_size > cap:
        raise CapExceeded(f"product space has {d_size} elements, cap is {cap}")

    elements = family.elements()
    bit = {e: 1 << idx for idx, e in enumerate(elements)}
    point_masks = []
    for point in itertools.product(*(sorted(b) for b in family.blocks)):
        m = 0
        for e in point:
            m |= bit[e]
        point_masks.append(m)

    full = (1 << family.k) - 1
    table: dict[int, dict[int, int]] = {0: {0: 1}}
    for pm in point_masks:
        # Deltas are computed against the pre-point table only; merging while
        # iterating would let a point enter the same subset twice.
        deltas: list[tuple[int, int, int]] = []
        for mask, by_size in table.items():
            merged = mask | pm
            for size, count in by_size.items():
                deltas.append((merged, size + 1, count))
        for mask, size, count in deltas:
            by_size = table.setdefault(mask, {})
            by_size[size] = by_size.get(size, 0) + count
    return table.get(full, {}).get(t, 0)


def alternating_coefficient_sum(family: DisjointFamily) -> int:
    """sum_t (-1)^{t-1} c(A, t) over t = 1..|D|; always equals (-1)^{k-n}."""
    total = 0
    for t in range(1, family.product_size() + 1):
        term = coefficient_count(family, t)
        total += term if t % 2 else -term
    return total
