"""Exact and sampled system reliability.

Three routes to P(every function has a working implementation):

* classical: inclusion-exclusion over all non-empty subsets of the product
  space W of one-per-function selections, 2^|W| - 1 signed terms.  Kept as
  the intentionally expensive baseline and cross-check.
* simplified: one signed term per covering selection, sign (-1)^(k - n) for
  cardinality k, prod (2^{t_i} - 1) terms in total.
* monte_carlo: per-component Bernoulli sampling, one bit of a Python
  integer per sample, exact for every float a_c.

Both exact routes reduce to one map {union mask: net coefficient}.  The
covering-selection sign (-1)^(k - n) is the product of the per-function
signs (-1)^(|S_i| - 1), so every signed term comes from `_signed_unions`:
the simplified route folds one signed union map per function by
OR-convolution, `term_stream` yields its picks one by one, and the
classical route takes the subsets of W.  A function's own map is built
straight from the prefix table while it has fewer subsets than
`_accumulate` takes between checks, and by `_accumulate` past that; every
other map is built by `_accumulate`, which stops past MAX_LIVE_MASKS masks
or a deadline, except the fold's merges, which `_merge`, the one
OR-convolution loop, makes under the same cap.

Functions whose supports (the components of all their implementations)
are linked, directly or through other functions, form one group; groups
share no component, so they are independent modules in the sense of
Birnbaum & Esary (1965) and R is the product of the groups' reliabilities.
The simplified route folds each group on its own, so a 4^5 system with no
sharing folds five maps of 15 masks instead of one of 759,375.  A last
merge that could pass _CHECK_EVERY entries is never held whole:
`_split_sum` splits it into parts whose keys differ.  A part's row depends
only on its entries' inner patterns (their bits inside the last function's
support) and coefficients, and a head has few patterns, so the parts fall
into few buckets of alike parts; a bucket's row is merged once and the
terms of all its parts are summed in one pass.
The classical route still builds its one map and projects it onto each
group's support; each per-function map sums to 1, so a projection is
exactly that group's folded map.  A group's terms, coefficient times the
product of component reliabilities, go to one `math.fsum`, which is
correctly rounded and therefore independent of order and of how the map is
split, and the group sums are multiplied in ascending support order: equal
maps give bit-identical results, run to run and route to route.

Each product comes in `system.mask_product`'s one order: component ids in
chunks of CHUNK_BITS, each chunk multiplied from 1.0 in ascending id order,
the chunk products in ascending chunk order.  `_signed_sum` walks each
mask.  Only a split last merge, whose buckets repeat the same chunk values
many times over, takes each chunk value's product once from a
`_ChunkProducts` table and multiplies a key's chunk products in that same
order with `_multiply`: the floats are the same, so the split never
changes a result.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

from . import combinatorics as comb_mod
from .errors import CapExceeded, EvaluationTimeout, InvalidSystemError
from .system import (
    CHUNK_BITS,
    CHUNK_MASK,
    SystemSpec,
    mask_product,
    reliability_array,
    validate_system,
)

# Exact evaluators refuse term counts beyond this unless overridden.
DEFAULT_TERM_CAP = (1 << 24) - 1

# Exact evaluators stop once a group of functions has more distinct
# covering-selection unions than this, counted as its last merge is summed,
# or once any map they hold (a function's own map, a partial fold, the
# classical map) has more masks.  The term cap bounds the terms, not the
# distinct unions they fold into: a 4^6 system on 48 components with
# sharing 0.3 passes it with 11,390,625 terms, yet folds into about 6.5
# million unions.
MAX_LIVE_MASKS = 1 << 22

# `_accumulate` checks its caps once per this many terms.
_CHECK_EVERY = 1 << 13

# `_split_sum` holds one bucket's row at a time, and at most this many of
# its memoised products per chunk.
_HELD_PRODUCTS = 1 << 13

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


def _prepare(spec: SystemSpec) -> tuple[list[list[int]], list[float]]:
    report = validate_system(spec)
    if not report.ok:
        raise InvalidSystemError(report.violations)
    masks = [[impl.mask for impl in function] for function in spec.functions]
    return masks, reliability_array(spec)


def _check_term_cap(term_count: int, cap_terms: int | None = DEFAULT_TERM_CAP) -> None:
    if cap_terms is not None and term_count > cap_terms:
        raise CapExceeded(f"{term_count} terms exceeds the cap {cap_terms}")


def _check_live_masks(distinct: int) -> None:
    if distinct > MAX_LIVE_MASKS:
        raise CapExceeded(f"coefficient map passed {MAX_LIVE_MASKS} distinct masks")


def _accumulate(
    terms: Iterable[tuple[int, int]], deadline: float = math.inf
) -> dict[int, int]:
    """{mask: summed coefficient} over (mask, coefficient) pairs, zeros kept.

    Every _CHECK_EVERY terms, and at the end, a map past MAX_LIVE_MASKS
    raises CapExceeded; every _CHECK_EVERY terms a perf_counter past
    `deadline` raises EvaluationTimeout.
    """
    out: dict[int, int] = {}
    every = _CHECK_EVERY - 1
    for s, (mask, c) in enumerate(terms, 1):
        if not s & every:
            _check_live_masks(len(out))
            if time.perf_counter() > deadline:
                raise EvaluationTimeout(f"deadline passed after {s - 1} terms")
        out[mask] = out.get(mask, 0) + c
    _check_live_masks(len(out))
    return out


def _prefix_table(masks: Sequence[int]) -> list[tuple[int, int]]:
    """(union of S, (-1)^(|S| - 1)) for every subset S of masks, the empty one first."""
    table = [(0, -1)]
    for m in masks:
        table += [(union | m, -sign) for union, sign in table]
    return table


def _own_map(masks: Sequence[int]) -> dict[int, int]:
    """{union: summed sign} over the non-empty subsets of one function's masks.

    A function with fewer subsets than `_accumulate` takes between checks is
    built straight from the prefix table, where no periodic check could
    fire; both ways check the finished map against MAX_LIVE_MASKS.
    """
    if 1 << len(masks) > _CHECK_EVERY:
        return _accumulate(_signed_unions(masks))
    out: dict[int, int] = {}
    for union, sign in _prefix_table(masks)[1:]:
        out[union] = out.get(union, 0) + sign
    _check_live_masks(len(out))
    return out


def _signed_unions(masks: Sequence[int]) -> Iterator[tuple[int, int]]:
    """(union of S, (-1)^(|S| - 1)) for every non-empty subset S of masks.

    Subsets come in ascending binary-counter order, bit j standing for
    masks[j].  The low bits of the counter come from a prefix table built
    once; the high bits are OR-ed in once per outer step, so one path serves
    any width.
    """
    low = _prefix_table(masks[:_TABLE_BITS])
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


def _merge(
    pairs: Iterable[tuple[int, int]], own: dict[int, int], distinct: int = 0
) -> dict[int, int]:
    """{a | b: summed ca * cb} over (a, ca) in pairs and (b, cb) in own, zeros kept.

    The one OR-convolution loop.  After each pair it raises CapExceeded
    once `distinct` unions counted elsewhere plus the map's own pass
    MAX_LIVE_MASKS.
    """
    merged: dict[int, int] = {}
    for a, ca in pairs:
        for b, cb in own.items():
            key = a | b
            merged[key] = merged.get(key, 0) + ca * cb
        _check_live_masks(distinct + len(merged))
    return merged


def _fold(functions: list[list[int]]) -> dict[int, int]:
    """{union mask: net coefficient} over every covering selection.

    `_merge` of one signed union map per function, own maps from
    `_own_map`.  Zero entries are kept, so the keys are exactly the
    distinct covering-selection unions.
    """
    total = _own_map(functions[0])
    for masks in functions[1:]:
        total = _merge(total.items(), _own_map(masks))
    return total


class _ChunkProducts(dict):
    """{field: mask_product(field)} for masks inside one chunk of ids, filled lazily.

    `chunks` holds the CHUNK_MASK-wide bit fields below `width`, lowest
    first.  Entries are computed on first lookup, so the table holds only
    the field values met.
    """

    def __init__(self, reliabilities: Sequence[float], width: int) -> None:
        super().__init__()
        self.reliabilities = reliabilities
        self.chunks = [CHUNK_MASK << shift for shift in range(0, width, CHUNK_BITS)]

    def __missing__(self, field: int) -> float:
        p = self[field] = mask_product(field, self.reliabilities)
        return p


class _Column(dict):
    """{outer's field o: [table[o | f] for a row's key fields f]} in one chunk.

    Filled lazily; an entry past _HELD_PRODUCTS products drops those held.
    """

    def __init__(self, table: _ChunkProducts, fields: list[int]) -> None:
        super().__init__()
        self.lookup, self.fields = table.__getitem__, fields

    def __missing__(self, o: int) -> list[float]:
        if (len(self) + 1) * len(self.fields) > _HELD_PRODUCTS:
            self.clear()
        products = self[o] = list(map(self.lookup, map(o.__or__, self.fields)))
        return products


def _multiply(factors: Sequence[Iterable[float]]) -> Iterator[float]:
    """Elementwise products of per-chunk product columns, lowest chunk first.

    This is `mask_product`'s order: a mask's product is its chunk fields'
    products multiplied from the lowest up, a field the mask leaves empty
    reads 1.0 or is left out, and x * 1.0 == x, so the products are
    bit-identical to `mask_product`'s.
    """
    products = iter(factors[0])
    for factor in factors[1:]:
        products = map(operator.mul, products, factor)
    return products


def _signed_sum(coefficients: dict[int, int], reliabilities: list[float]) -> float:
    """Correctly rounded sum of c * P(mask), so the map's order never matters."""
    return math.fsum(
        c * mask_product(mask, reliabilities) for mask, c in coefficients.items() if c
    )


def _groups(functions: list[list[int]]) -> list[tuple[int, list[list[int]]]]:
    """(support, member functions) per group of functions sharing no component.

    Functions whose supports intersect are merged, transitively.  Supports
    of different groups are disjoint and non-empty, so sorting by support
    gives one order whatever the order of the functions.
    """
    groups: list[tuple[int, list[list[int]]]] = []
    for masks in functions:
        support = 0
        for m in masks:
            support |= m
        members = [masks]
        apart = []
        for other, other_members in groups:
            if other & support:
                support |= other
                members += other_members
            else:
                apart.append((other, other_members))
        groups = apart + [(support, members)]
    return sorted(groups, key=lambda group: group[0])


def _group_sum(
    functions: list[list[int]], reliabilities: list[float]
) -> tuple[float, int]:
    """(signed sum, distinct unions) of one group, without holding its map.

    A group of one function sums its own map.  Otherwise the functions
    before the last are folded by `_fold` into a head map, and the last
    merge, head times the last function's own map, is summed as it is made.
    A merge that cannot pass _CHECK_EVERY entries is made whole by `_merge`
    and summed, a larger one by `_split_sum` a bucket of parts at a time,
    bit-identical to `_signed_sum(_fold(functions))` and its length.  The
    running count of distinct unions is checked against MAX_LIVE_MASKS
    after every bucket and during every merge, so CapExceeded fires exactly
    when the whole map would have passed it.
    """
    if len(functions) == 1:
        own = _own_map(functions[0])
        return _signed_sum(own, reliabilities), len(own)
    head = _fold(functions[:-1])
    last = _own_map(functions[-1])
    if len(head) * len(last) > _CHECK_EVERY:
        return _split_sum(head, last, functions[-1], reliabilities)
    merged = _merge(head.items(), last)
    return _signed_sum(merged, reliabilities), len(merged)


def _buckets(head: dict[int, int], inside: int) -> dict[tuple, list[int]]:
    """{signature: one head key of each part} over `_split_sum`'s parts.

    Sorted by key and then by outer, a part's entries are neighbours in
    ascending pattern order, and an outer equal to a neighbour's marks a
    part of several entries, read part by part.  Every other part's
    signature is its one pair, so those are bucketed by two stable sorts,
    once the lists the first step needed are dropped.
    """
    outside = ~inside
    order = sorted(head)
    order.sort(key=outside.__and__)
    outers, behind = itertools.tee(map(outside.__and__, order))
    same = list(map(operator.eq, outers, itertools.chain([None], behind)))
    several = list(map(operator.or_, same, same[1:] + [False]))
    buckets: dict[tuple, list[int]] = {}
    for _, part in itertools.groupby(itertools.compress(order, several), outside.__and__):
        part = list(part)
        buckets.setdefault(tuple([(a & inside, head[a]) for a in part]), []).append(part[0])
    single = sorted(itertools.compress(order, map(operator.not_, several)), key=head.get)
    del order, same, several
    single.sort(key=inside.__and__)
    for x, alike in itertools.groupby(single, inside.__and__):
        for c, part in itertools.groupby(alike, head.__getitem__):
            buckets[((x, c),)] = list(part)
    return buckets


def _split_sum(
    head: dict[int, int],
    last: dict[int, int],
    last_masks: list[int],
    reliabilities: list[float],
) -> tuple[float, int]:
    """`_group_sum` of a large last merge, summed one bucket of parts at a time.

    A key of the merge is a | b with b inside the last function's support
    S, so the head splits into parts by outer = a & ~S, whose keys outer | y
    (y inside S) meet no other part's.  A part's row {y: coefficient}
    depends only on its signature, its entries' (pattern a & S,
    coefficient) pairs, and `_buckets` finds few signatures.  A bucket's
    row is merged once, counted once per part, and gives the terms
    c * P(outer | y) of all its parts to `math.fsum` in one pipeline: per
    chunk, a `_Column` gives each part's products of the row's fields
    joined with outer's, multiplied in `mask_product`'s order.
    """
    inside = 0
    for m in last_masks:
        inside |= m
    table = _ChunkProducts(reliabilities, (max(head) | inside).bit_length())
    distinct = 0

    def terms() -> Iterator[Iterable[float]]:
        nonlocal distinct
        for signature, parts in _buckets(head, inside).items():
            row = _merge(signature, last, distinct)
            distinct += len(row) * len(parts)
            _check_live_masks(distinct)
            keys = [y for y, c in row.items() if c]
            factors = []
            for chunk in table.chunks:
                column = _Column(table, [y & chunk for y in keys])
                fields = map((chunk & ~inside).__and__, parts)
                factors.append(itertools.chain.from_iterable(map(column.__getitem__, fields)))
            # an all-zero row has no coefficient, so its factors are never read
            coefficients = itertools.cycle([row[y] for y in keys])
            yield map(operator.mul, coefficients, _multiply(factors))

    return math.fsum(itertools.chain.from_iterable(terms())), distinct


def reliability_simplified(
    spec: SystemSpec, cap_terms: int | None = DEFAULT_TERM_CAP
) -> EvaluationReport:
    """Exact reliability via covering selections.

    Sums (-1)^(k - n) * P(all selected implementations work) over covering
    selections of every cardinality k = n..m, with selections of equal union
    mask merged as the functions are folded together.  Each group of
    functions sharing no component with the rest is folded on its own and
    the group sums are multiplied; `distinct_product_count` is the product
    of the groups' distinct union counts, which is the number of distinct
    covering-selection unions because the group supports are disjoint.
    """
    start = time.perf_counter()
    masks, reliabilities = _prepare(spec)
    term_count = comb_mod.count_terms_simplified(spec.shape)
    _check_term_cap(term_count, cap_terms)
    reliability, distinct = 1.0, 1
    for _, functions in _groups(masks):
        group_reliability, group_distinct = _group_sum(functions, reliabilities)
        reliability *= group_reliability
        distinct *= group_distinct
    return EvaluationReport(
        method=Method.SIMPLIFIED,
        reliability=reliability,
        term_count=term_count,
        distinct_product_count=distinct,
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

    Enumerates subsets of W with `_signed_unions`, merges equal union masks
    into one capped map with `_accumulate`, projects it onto each group of
    independent functions with `_accumulate` too, and sums the projections.
    `budget_seconds` aborts long runs with EvaluationTimeout; the benchmark
    treats that as a data point rather than a failure.
    """
    start = time.perf_counter()
    masks, reliabilities = _prepare(spec)
    term_count = comb_mod.count_terms_classical(spec.shape)
    _check_term_cap(term_count, cap_terms)

    deadline = math.inf if budget_seconds is None else start + budget_seconds
    coefficients = _accumulate(_signed_unions(_point_masks(masks)), deadline)

    supports = [support for support, _ in _groups(masks)]
    maps = [_accumulate((u & s, c) for u, c in coefficients.items()) for s in supports]

    return EvaluationReport(
        method=Method.CLASSICAL,
        reliability=math.prod(_signed_sum(m, reliabilities) for m in maps),
        term_count=term_count,
        distinct_product_count=len(coefficients),
        wall_time=time.perf_counter() - start,
    )


def _bernoulli_word(p: float, width: int, rng: random.Random) -> int:
    """`width` independent bits, each 1 with probability exactly p, 0 < p < 1.

    Bit j is 1 when a uniform U_j lies below p.  U_j's binary digits come
    one word at a time and are compared with the digits of p's exact
    value num / 2^k; a bit is decided at its first digit that differs from
    p's, and one that matches all k digits has U_j >= p.
    """
    num, den = p.as_integer_ratio()
    word, undecided = 0, (1 << width) - 1
    for shift in range(den.bit_length() - 2, -1, -1):
        if not undecided:
            break
        digits = rng.getrandbits(width)
        if (num >> shift) & 1:
            word |= undecided & ~digits
            undecided &= digits
        else:
            undecided &= ~digits
    return word


def reliability_monte_carlo(
    spec: SystemSpec, samples: int, seed: int
) -> EvaluationReport:
    """Estimate reliability by sampling component states.

    Each sample draws every component up/down independently; the system
    counts as up when every function has an implementation with all its
    components up.  Samples are bits of one integer per component and
    chunk, and each bit is 1 with probability exactly a_c because it
    compares fair random digits with the binary expansion of a_c (Knuth &
    Yao, 1976).  Returns the hit rate and its binomial standard error.
    Deterministic for a fixed seed.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    start = time.perf_counter()
    masks, reliabilities = _prepare(spec)
    # components no implementation uses are never drawn
    support = 0
    for function in masks:
        for mask in function:
            support |= mask

    rng = random.Random(seed)
    hits = 0
    remaining = samples
    while remaining > 0:
        chunk = min(remaining, _MC_CHUNK)
        up = {
            c: _bernoulli_word(a, chunk, rng)
            for c, a in enumerate(reliabilities)
            if support >> c & 1
        }
        full = (1 << chunk) - 1
        ok = full
        for function in masks:
            function_up = 0
            for mask in function:
                impl_up = full
                while mask:
                    low = mask & -mask
                    impl_up &= up[low.bit_length() - 1]
                    mask ^= low
                function_up |= impl_up
            ok &= function_up
        hits += ok.bit_count()
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
    """Signed terms of an exact method, each one from `_signed_unions`.

    Simplified: per covering selection, the OR of one signed union per
    function and the product of their signs; functions in spec order, the
    last varying fastest, each function's subsets in ascending binary-counter
    order with bit j for implementation j.  Classical: the subsets of W in
    that counter order.  The term cap is checked at call time.  Aggregating
    by component_mask and summing coefficient * prod(a_c) reproduces the
    method's reliability; both methods aggregate to identical maps.
    """
    method = Method(method)
    masks, _ = _prepare(spec)

    if method is Method.SIMPLIFIED:
        _check_term_cap(comb_mod.count_terms_simplified(spec.shape), cap_terms)

        def simplified() -> Iterator[TermEvent]:
            # product() materialises each function's unions on the first next()
            for picks in itertools.product(*map(_signed_unions, masks)):
                union, sign = 0, 1
                for u, s in picks:
                    union |= u
                    sign *= s
                yield TermEvent(union, sign)

        return simplified()

    if method is Method.CLASSICAL:
        _check_term_cap(comb_mod.count_terms_classical(spec.shape), cap_terms)
        return (TermEvent(u, sign) for u, sign in _signed_unions(_point_masks(masks)))

    raise ValueError("term streams exist only for the exact methods")


def aggregate_terms(events: Iterable[TermEvent]) -> dict[int, int]:
    """Net coefficient per component mask, zeros dropped; capped by `_accumulate`."""
    out = _accumulate((event.component_mask, event.coefficient) for event in events)
    return {mask: coeff for mask, coeff in out.items() if coeff}
