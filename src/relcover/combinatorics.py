"""Term counts of the two exact evaluation routes, and reference enumerations.

The classical route expands inclusion-exclusion over W, the product space
of one-implementation-per-function selections, and touches 2^|W| - 1 terms
with |W| = prod t_i.  The simplified route sums over covering selections:
sets of k distinct implementations, n <= k <= m, that hit every function at
least once.  Their total count is prod (2^{t_i} - 1), exponentially smaller.

All counters use exact integers; the interesting values overflow any fixed
width long before the evaluators give up.  Only this module builds, caps
and writes the routes' nominal counts: the classical cap is checked from
|W| alone, and `format_term_counts` builds no integer past 4096 bits.
`coefficient_count` computes the coverage coefficient c(A, t): how many
t-subsets of D = A_1 x ... x A_n cover the disjoint family A, via an
alternating binomial sum, and `coefficient_count_bruteforce` recounts it
by exhaustive dynamic programming over D, an independent route to check
the formula against.  In the reliability setting A_i is function i's set
of implementations, so the family is a `FamilyShape` with |A_i| = t_i,
|A| = m and D = W, and an element of A is a (function, impl) index pair.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import comb, prod
from typing import Iterable, Iterator, Sequence

from .errors import CapExceeded
from .system import FamilyShape

# coefficient_count_bruteforce refuses product spaces larger than this.
DEFAULT_BRUTEFORCE_CAP = 22

# format_term_counts writes a term count in full only while it has at most
# this many bits: 2^|W| - 1 has |W|, prod (2^{t_i} - 1) fewer than sum t_i.
# Past it the integer alone would run to thousands of digits, and to
# gigabytes before that, so the count is written as a power or a product of
# powers; so is |W| itself past this many bits, in brackets (`_format_w`).
_EXACT_COUNT_MAX_BITS = 4096

Pair = tuple[int, int]


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
) -> Iterator[tuple[Pair, ...]]:
    """All covering selections of cardinality k, canonical order, no repeats.

    Each selection is a sorted tuple of (function_index, impl_index) pairs.

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

    def walk(i: int, room: int, prefix: tuple) -> Iterator[tuple[Pair, ...]]:
        for size, chosen in subsets[i]:
            rest = room - size
            if n - i - 1 <= rest <= most[i + 1]:
                pairs = prefix + tuple((i, j) for j in chosen)
                if i + 1 == n:
                    yield pairs
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
    # one power per distinct size: a running product of 10^5 factors takes
    # quadratic time in the growing integer
    return prod(((1 << t) - 1) ** k for t, k in Counter(shape.sizes).items())


def _power_form(sizes: Iterable[int], factor: str) -> str:
    # prod factor(t) with equal factors gathered, e.g. (2^1000-1)^20 or 3^10000
    return "*".join(
        f"{factor.format(t)}^{k}" if k > 1 else factor.format(t)
        for t, k in sorted(Counter(sizes).items())
    )


def _format_w(shape: FamilyShape) -> str:
    w = shape.product_size
    if w.bit_length() <= _EXACT_COUNT_MAX_BITS:
        return str(w)
    return f"({_power_form((t for t in shape.sizes if t > 1), '{}')})"


def format_term_counts(shape: FamilyShape) -> tuple[str, str]:
    """The classical and simplified term counts as printable text.

    2^|W| - 1 is written in full up to |W| = 4096, then as 2^|W|-1 while |W|
    has at most 4096 bits, then with |W| as a product of powers of the
    sizes; prod (2^{t_i} - 1) is written in full while sum t_i is at most
    4096, then as a product of powers.  No integer past 4096 bits is built.
    """
    if shape.product_size <= _EXACT_COUNT_MAX_BITS:
        classical = str(count_terms_classical(shape))
    else:
        classical = f"2^{_format_w(shape)}-1"
    if shape.m <= _EXACT_COUNT_MAX_BITS:
        simplified = str(count_terms_simplified(shape))
    else:
        simplified = _power_form(shape.sizes, "(2^{}-1)")
    return classical, simplified


def _cap_exceeded(count: str, cap: int) -> CapExceeded:
    # str() of a cap may pass the 4300-digit limit, so past 4096 bits a cap is
    # written by its bit length, as format_term_counts writes counts
    if cap.bit_length() <= _EXACT_COUNT_MAX_BITS:
        written = str(cap)
    else:
        written = f"{'-' if cap < 0 else ''}(a {cap.bit_length()}-bit number)"
    return CapExceeded(f"{count} terms exceeds the cap {written}")


def simplified_terms_within(shape: FamilyShape, cap: int | None) -> int:
    """prod (2^{t_i} - 1), or CapExceeded past `cap`; a cap of None refuses nothing."""
    count = count_terms_simplified(shape)
    if cap is not None and count > cap:
        raise _cap_exceeded(format_term_counts(shape)[1], cap)
    return count


def check_classical_terms(shape: FamilyShape, cap: int | None) -> None:
    """CapExceeded when 2^|W| - 1 > cap, so when |W| >= (cap + 1).bit_length()."""
    if cap is not None and shape.product_size >= max(cap + 1, 0).bit_length():
        raise _cap_exceeded(format_term_counts(shape)[0], cap)


def _universe(shape: FamilyShape) -> tuple[Pair, ...]:
    # A in canonical order: function by function, by index within a function.
    return tuple((i, j) for i, t in enumerate(shape.sizes) for j in range(t))


def subset_product_size(shape: FamilyShape, subset: Iterable[Pair]) -> int:
    """p(I, A) = prod |A_i  intersect  I| for I a set of (function, impl) pairs."""
    pairs = set(subset)
    if not pairs <= set(_universe(shape)):
        raise ValueError("subset contains elements outside the family")
    hits = [0] * shape.n
    for i, _ in pairs:
        hits[i] += 1
    return prod(hits)


def coefficient_count(shape: FamilyShape, t: int) -> int:
    """Number of t-subsets of D = A_1 x ... x A_n whose coordinates cover A.

    Evaluated by the alternating sum
        c(A, t) = sum_{i=0}^{m-n} (-1)^i sum_{|I| = m-i} C(p(I, A), t)
    over subsets I of A, with p(I, A) = prod |A_i intersect I|.
    Exact integers throughout; t beyond |D| gives 0.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    elements = _universe(shape)
    total = 0
    for i in range(shape.m - shape.n + 1):
        sign = -1 if i % 2 else 1
        for chosen in itertools.combinations(elements, shape.m - i):
            total += sign * comb(subset_product_size(shape, chosen), t)
    return total


def coefficient_count_bruteforce(
    shape: FamilyShape, t: int, cap: int = DEFAULT_BRUTEFORCE_CAP
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
    if shape.product_size > cap:
        raise CapExceeded(f"product space has {_format_w(shape)} elements, cap is {cap}")

    bit = {e: 1 << idx for idx, e in enumerate(_universe(shape))}
    point_masks = []
    for point in itertools.product(*(range(t_i) for t_i in shape.sizes)):
        m = 0
        for i, j in enumerate(point):
            m |= bit[i, j]
        point_masks.append(m)

    full = (1 << shape.m) - 1
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


def alternating_coefficient_sum(shape: FamilyShape) -> int:
    """sum_t (-1)^{t-1} c(A, t) over t = 1..|D|; always equals (-1)^{m-n}."""
    total = 0
    for t in range(1, shape.product_size + 1):
        term = coefficient_count(shape, t)
        total += term if t % 2 else -term
    return total
