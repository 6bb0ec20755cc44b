import itertools
import math
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from relcover import (
    CapExceeded,
    Component,
    EvaluationTimeout,
    FamilyShape,
    Implementation,
    InvalidSystemError,
    Method,
    SystemSpec,
    aggregate_terms,
    enumerate_covering_selections,
    exact_union_probability,
    generate_random_system,
    reliability_classical,
    reliability_monte_carlo,
    reliability_simplified,
    term_stream,
)
from relcover import evaluate
from relcover.evaluate import (
    _accumulate,
    _buckets,
    _fold,
    _group_sum,
    _groups,
    _own_map,
    _signed_sum,
    _signed_unions,
    _split_sum,
    _tail_length,
)
from relcover.system import CHUNK_BITS, mask_product, reliability_array
from test_golden import SPLIT


def make_system(reliabilities, functions, name="test"):
    comps = tuple(Component(i, r) for i, r in enumerate(reliabilities))
    built = tuple(
        tuple(Implementation(i, j, frozenset(s)) for j, s in enumerate(function))
        for i, function in enumerate(functions)
    )
    return SystemSpec(name, comps, built)


def state_space_reliability(spec):
    """Independent exact oracle: sum P(state) over all 2^z component states.

    Stored reliabilities are dyadic rationals, so Fraction arithmetic gives
    the exact reliability of the stored inputs.
    """
    z = spec.component_count
    rel = {c.id: Fraction(c.reliability) for c in spec.components}
    total = Fraction(0)
    for state in itertools.product((False, True), repeat=z):
        p = Fraction(1)
        for cid in range(z):
            p *= rel[cid] if state[cid] else 1 - rel[cid]
        up = all(
            any(all(state[c] for c in impl.components) for impl in function)
            for function in spec.functions
        )
        if up:
            total += p
    return total


small_systems = st.builds(
    lambda sizes, seed, sharing: generate_random_system(
        FamilyShape(tuple(sizes)), 8, sharing, seed
    ),
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    seed=st.integers(0, 10**6),
    sharing=st.floats(0.0, 1.0),
)


# --- exact values -----------------------------------------------------------


def test_reference_system_t1(t1):
    simp = reliability_simplified(t1)
    clas = reliability_classical(t1)
    assert simp.reliability == pytest.approx(0.2668, abs=1e-12)
    assert clas.reliability == pytest.approx(0.2668, abs=1e-12)
    assert simp.term_count == clas.term_count == 7
    assert simp.distinct_product_count == 6


def test_single_implementation_is_plain_product():
    spec = make_system([0.5, 0.7], [[{0, 1}]])
    assert reliability_simplified(spec).reliability == pytest.approx(0.35, abs=1e-15)
    assert reliability_classical(spec).reliability == pytest.approx(0.35, abs=1e-15)


def test_two_disjoint_implementations():
    # 1 - (1 - 0.5)(1 - 0.7)
    spec = make_system([0.5, 0.7], [[{0}, {1}]])
    assert reliability_simplified(spec).reliability == pytest.approx(0.85, abs=1e-15)
    assert reliability_classical(spec).reliability == pytest.approx(0.85, abs=1e-15)


def test_two_functions_in_series():
    spec = make_system([0.5, 0.7], [[{0}], [{1}]])
    assert reliability_simplified(spec).reliability == pytest.approx(0.35, abs=1e-15)
    assert reliability_classical(spec).reliability == pytest.approx(0.35, abs=1e-15)


def test_door_fixture_against_state_space(fixtures_dir, t1):
    assert reliability_simplified(t1).reliability == pytest.approx(
        float(state_space_reliability(t1)), abs=1e-12
    )


@given(spec=small_systems)
def test_methods_agree_with_state_space(spec):
    oracle = float(state_space_reliability(spec))
    assert reliability_simplified(spec).reliability == pytest.approx(oracle, abs=1e-15)
    assert reliability_classical(spec).reliability == pytest.approx(oracle, abs=1e-15)
    if len(spec.functions) == 1:
        assert exact_union_probability(spec) == pytest.approx(oracle, abs=1e-15)


def reversed_system(spec):
    """The same system with functions, and implementations inside each, reversed."""
    return make_system(
        [c.reliability for c in spec.components],
        [[impl.components for impl in reversed(f)] for f in reversed(spec.functions)],
    )


@given(spec=small_systems)
def test_exact_routes_are_bit_identical_and_order_free(spec):
    value = reliability_simplified(spec).reliability
    assert reliability_classical(spec).reliability == value
    assert reliability_simplified(reversed_system(spec)).reliability == value


@st.composite
def disjoint_unions(draw):
    """2-4 small random systems side by side, component ids offset, |W| <= 16."""
    parts = draw(
        st.lists(
            st.builds(
                lambda sizes, components, sharing, seed: generate_random_system(
                    FamilyShape(tuple(sizes)), components, sharing, seed
                ),
                sizes=st.lists(st.integers(1, 3), min_size=1, max_size=2),
                components=st.integers(2, 3),
                sharing=st.floats(0.0, 1.0),
                seed=st.integers(0, 10**6),
            ),
            min_size=2,
            max_size=4,
        ).filter(lambda parts: math.prod(p.shape.product_size for p in parts) <= 16)
    )
    reliabilities, functions = [], []
    for part in parts:
        offset = len(reliabilities)
        reliabilities += [c.reliability for c in part.components]
        functions += [
            [{c + offset for c in impl.components} for impl in f] for f in part.functions
        ]
    return make_system(reliabilities, functions)


@given(spec=disjoint_unions(), data=st.data())
def test_independent_groups_factor_exactly(spec, data):
    simplified = reliability_simplified(spec)
    value = simplified.reliability
    assert reliability_classical(spec).reliability == value
    assert value == pytest.approx(float(state_space_reliability(spec)), abs=1e-15)

    order = data.draw(st.permutations(range(len(spec.functions))))
    shuffled = make_system(
        [c.reliability for c in spec.components],
        [[impl.components for impl in spec.functions[i]] for i in order],
    )
    assert reliability_simplified(shuffled).reliability == value
    assert reliability_classical(shuffled).reliability == value

    unions = {e.component_mask for e in term_stream(spec)}
    assert simplified.distinct_product_count == len(unions)
    assert simplified.term_count == math.prod((1 << t) - 1 for t in spec.shape.sizes)


def test_runs_are_bit_identical():
    spec = generate_random_system(FamilyShape((2, 3)), 10, 0.5, seed=11)
    a = reliability_simplified(spec).reliability
    b = reliability_simplified(spec).reliability
    assert a == b
    c = reliability_classical(spec).reliability
    d = reliability_classical(spec).reliability
    assert c == d


# --- products ---------------------------------------------------------------


def chunked_product(ids, reliabilities):
    """The documented order: each chunk from 1.0 by ascending id, chunks ascending."""
    p = 1.0
    for chunk in sorted({i // CHUNK_BITS for i in ids}):
        q = 1.0
        for i in sorted(ids):
            if i // CHUNK_BITS == chunk:
                q *= reliabilities[i]
        p *= q
    return p


@st.composite
def product_maps(draw):
    """A spec of up to 128 components and a coefficient map over its ids."""
    z = draw(st.one_of(st.just(128), st.integers(1, 128)))
    reliabilities = draw(
        st.lists(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            min_size=z,
            max_size=z,
        )
    )
    edges = [i for i in (0, 15, 16, 17, 31, 32, 127) if i < z]
    ids = st.one_of(st.sampled_from(edges), st.integers(0, z - 1))
    entries = draw(
        st.lists(
            st.tuples(st.sets(ids, max_size=12), st.integers(-3, 3)),
            min_size=1,
            max_size=20,
        )
    )
    spec = SystemSpec("products", tuple(map(Component, range(z), reliabilities)), ())
    return spec, {frozenset(members): c for members, c in entries}


@given(drawn=product_maps())
def test_memoised_products_are_bit_identical(drawn):
    spec, by_set = drawn
    coefficients = {sum(1 << i for i in ids): c for ids, c in by_set.items()}
    reliabilities = reliability_array(spec)
    for ids in by_set:
        mask = sum(1 << i for i in ids)
        product = mask_product(mask, reliabilities)
        assert product.hex() == chunked_product(ids, reliabilities).hex()
        if mask < 1 << CHUNK_BITS:
            assert product == math.prod(reliabilities[i] for i in sorted(ids))
    # with the last map {0: 1} every head entry is a part of its own, so the
    # split sum's terms are c * P(mask), P made of memoised chunk products;
    # a head key is a union of implementations, never empty
    head = {m: c for m, c in coefficients.items() if m}
    expected = sorted((c * mask_product(m, reliabilities)).hex() for m, c in head.items() if c)
    for held in (1, 1 << 13):
        terms = []
        with mock.patch.object(evaluate, "_HELD_PRODUCTS", held):
            with mock.patch.object(math, "fsum", side_effect=lambda t: terms.extend(t) or 0.0):
                if head:
                    _split_sum(head, {0: 1}, reliabilities)
        assert sorted(t.hex() for t in terms) == expected


# Three functions of four one-component implementations on ids 0..33, and a
# last function of six that links all three: 121,009 distinct unions, over
# three chunks of ids, so the last merge is split into many parts and its
# products are memoised.
ABOVE_A_CHUNK = [[{3 * (4 * i + j)} for j in range(4)] for i in range(3)] + [
    [{c} for c in range(34, 39)] + [{0, 12, 24, 39}]
]


def to_masks(functions):
    return [[sum(1 << c for c in impl) for impl in function] for function in functions]


# Two functions of four implementations {0, i} and a last function of six
# implementations {0, c} on ids 120..125: the last merge has 225 * 63 =
# 14,175 distinct unions, its support meets the head only in component 0,
# which every head entry holds, so each head entry is a part of its own.
SINGLE_ENTRY_PARTS = [[{0, 4 * f + j + 1} for j in range(4)] for f in range(2)] + [
    [{0, c} for c in range(120, 126)]
]

# Three head functions, one with an implementation inside another, and a
# last function on ids 20 and 21 that the third head function reaches: the
# head's parts with one entry share the pattern 0 under the coefficients
# 1, -1 and 0, and the rest have two entries, patterns 0 and {20}.
MIXED = [[{1}, {1, 2}], [{3}, {4}, {3, 4}], [{5}, {5, 20}, {6}], [{20}, {21}]]

# The same group with component c moved to id 3c + 2, so its ids run from 2
# to 119 and its masks span all eight chunks.
SPREAD = [[{3 * c + 2 for c in impl} for impl in function] for function in ABOVE_A_CHUNK]


@st.composite
def groups_of_functions(draw):
    """1-3 head functions on ids 0..63 and a last one on ids 0..127, so
    overlapping the head, or on ids 64..127, apart from it; 128 reliabilities.

    A head function may hold an implementation inside another, which gives
    the head zero coefficients, and the last function may take a head
    function's whole support, so that head entries differing only inside the
    last function's support share a part of its merge.
    """
    reliabilities = draw(
        st.lists(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            min_size=128,
            max_size=128,
        )
    )

    def function(low, high):
        edges = [i for i in (0, 15, 16, 47, 48, 63, 64, 127) if low <= i <= high]
        ids = st.one_of(st.sampled_from(edges), st.integers(low, high))
        return st.lists(st.sets(ids, min_size=1, max_size=3), min_size=1, max_size=4)

    head = draw(st.lists(function(0, 63), min_size=1, max_size=3))
    if draw(st.booleans()):
        nesting = draw(st.sampled_from(head))
        inner = draw(st.sampled_from(nesting))
        nesting.append(inner | draw(st.sets(st.integers(0, 63), min_size=1, max_size=2)))
    last = draw(function(draw(st.sampled_from([0, 64])), 127))
    if draw(st.booleans()):
        last.append(set().union(*draw(st.sampled_from(head))))
    return to_masks(head + [last]), reliabilities


@given(drawn=groups_of_functions())
@example(drawn=(to_masks(ABOVE_A_CHUNK), [0.5 + i / 100 for i in range(40)]))
@example(drawn=(to_masks(SPREAD), [0.2 + i / 200 for i in range(120)]))
def test_group_sum_is_the_folded_sum_bit_for_bit(drawn):
    functions, reliabilities = drawn
    folded = _fold(functions)
    expected = (_signed_sum(folded, reliabilities).hex(), len(folded))
    total, distinct = _group_sum(functions, reliabilities)
    assert (total.hex(), distinct) == expected
    # split every last merge into parts, however small, then also drop the
    # kept rows and chunk products at every addition
    with mock.patch.object(evaluate, "_CHECK_EVERY", 1):
        total, distinct = _group_sum(functions, reliabilities)
        assert (total.hex(), distinct) == expected
        with mock.patch.object(evaluate, "_HELD_PRODUCTS", 0):
            total, distinct = _group_sum(functions, reliabilities)
    assert (total.hex(), distinct) == expected


@given(drawn=groups_of_functions())
@example(drawn=(to_masks(SPREAD), [0.2 + i / 200 for i in range(120)]))
def test_split_at_every_tail_is_the_folded_sum_bit_for_bit(drawn):
    functions, reliabilities = drawn
    folded = _fold(functions)
    expected = (_signed_sum(folded, reliabilities).hex(), len(folded))
    for k in range(1, len(functions)):
        head, tail = _fold(functions[:-k]), _fold(functions[-k:])
        total, distinct = _split_sum(head, tail, reliabilities)
        assert (total.hex(), distinct) == expected, k


@given(drawn=groups_of_functions())
def test_buckets_are_the_parts_by_signature(drawn):
    functions, _ = drawn
    for k in range(1, len(functions)):
        head = _fold(functions[:-k])
        inside = 0
        for m in itertools.chain.from_iterable(functions[-k:]):
            inside |= m
        parts: dict[int, list[tuple[int, int]]] = {}
        for a, c in head.items():
            parts.setdefault(a & ~inside, []).append((a & inside, c))
        expected: dict[tuple, list[int]] = {}
        for outer, pairs in parts.items():
            expected.setdefault(tuple(sorted(pairs)), []).append(outer)
        buckets = _buckets(head, inside)
        # sorted lists, so an outer given twice or in two buckets shows
        assert {s: sorted(o) for s, o in buckets.items()} == {
            s: sorted(o) for s, o in expected.items()
        }, k


def parts_of(functions):
    """{outer: set of (pattern, coefficient)} over the head of a group's last merge."""
    masks = to_masks(functions)
    inside = 0
    for m in masks[-1]:
        inside |= m
    parts: dict[int, set[tuple[int, int]]] = {}
    for a, c in _fold(masks[:-1]).items():
        parts.setdefault(a & ~inside, set()).add((a & inside, c))
    return parts


def test_mixed_head_has_both_kinds_of_part():
    parts = parts_of(MIXED)
    single = [pairs for pairs in parts.values() if len(pairs) == 1]
    assert {c for (x, c), in single} == {-1, 0, 1}
    assert {x for (x, c), in single} == {0}
    assert len(single) < len(parts)


@pytest.mark.parametrize(
    "functions",
    [ABOVE_A_CHUNK, SINGLE_ENTRY_PARTS, MIXED],
    ids=["above-a-chunk", "single-entry-parts", "mixed"],
)
def test_parts_with_equal_pairs_share_one_merged_row(functions):
    masks = to_masks(functions)
    reliabilities = [0.3 + i / 200 for i in range(126)]
    head, last = _fold(masks[:-1]), _own_map(masks[-1])
    parts = parts_of(functions)
    signatures = {frozenset(pairs) for pairs in parts.values()}
    assert len(signatures) < len(parts)
    expected = (_signed_sum(_fold(masks), reliabilities).hex(), len(_fold(masks)))
    # each distinct row is merged exactly once, however few products are held
    for held in (0, 1 << 30):
        with mock.patch.object(evaluate, "_HELD_PRODUCTS", held):
            for built in (head, dict(reversed(head.items()))):
                with mock.patch.object(evaluate, "_merge", wraps=evaluate._merge) as merge:
                    total, distinct = _split_sum(built, last, reliabilities)
                assert merge.call_count == len(signatures)
                assert (total.hex(), distinct) == expected


@pytest.mark.parametrize(
    "sizes, k",
    [
        # the most last functions of at most 256 nominal terms
        ((4, 4, 4), 2),
        ((3,) * 4, 2),
        ((4,) * 5, 2),
        ((4,) * 6, 2),
        ((3,) * 8, 2),
        ((2,) * 14, 5),
        ((5,) * 4, 1),
        ((7,) * 3, 1),
        # never the whole group
        ((2, 2, 2, 2, 2, 2, 2, 2, 13), 1),
        ((13, 2, 2, 2), 3),
        # design-loop shapes, whose last merges are made whole
        ((2, 2), 1),
        ((3, 3), 1),
        ((3, 3, 3), 2),
        ((2, 2, 2, 2), 3),
    ],
)
def test_tail_length_depends_on_the_shape_alone(sizes, k):
    functions = [[1 << j for j in range(t)] for t in sizes]
    assert _tail_length(functions) == k


def test_split_sum_multiplies_coefficients_other_than_one():
    # a hand-built head over two chunks of ids: parts of one entry with
    # coefficient -2, 2 or 3 give rows that keep the multiply, parts of
    # +-1 rows whose signs ride in the first column, and parts of two
    # entries rows with both kinds of coefficient
    head = {}
    for i, c in zip(range(1, 400), itertools.cycle((2, -2, 3, 1, -1))):
        head[37 * i << 4 | i % 15 + 1] = c
        if not i % 7:
            head[37 * i << 4] = -c
    tail = _own_map([1 << j for j in range(4)])
    reliabilities = [0.3 + j / 50 for j in range(18)]
    merged = evaluate._merge(head.items(), tail)
    assert {abs(c) for c in merged.values()} >= {1, 2, 3}
    expected = (_signed_sum(merged, reliabilities).hex(), len(merged))
    total, distinct = _split_sum(head, tail, reliabilities)
    assert (total.hex(), distinct) == expected


@pytest.mark.parametrize(
    "spec, value, distinct",
    [row[:3] for row in SPLIT],
    ids=["two-chunks", "multi-entry-parts"],
)
def test_split_at_the_last_function_keeps_the_pinned_bits(spec, value, distinct):
    # these systems are evaluated with a tail of two functions; a tail of
    # the last function alone has the structure their pins describe
    functions = [[impl.mask for impl in f] for f in spec.functions]
    assert _tail_length(functions) == 2
    reliabilities = reliability_array(spec)
    total, count = _split_sum(_fold(functions[:-1]), _own_map(functions[-1]), reliabilities)
    assert (total.hex(), count) == (value, distinct)


def two_entry_parts():
    """(head, last, reliabilities) of a split last merge of 99,803 unions.

    2016 parts of two entries each, outers on ids 7..17, every one with its
    own pair of patterns inside the last function's support, ids 0..6, so
    the parts meet 19,068 distinct chunk values.
    """
    pairs = itertools.islice(itertools.combinations(range(128), 2), 2016)
    head = {}
    for outer, pair in enumerate(pairs, 1):
        for x, c in zip(pair, (1, -1)):
            head[outer << 7 | x] = c
    return head, _own_map([1 << i for i in range(7)]), [0.5 + i / 100 for i in range(18)]


def test_split_sum_never_holds_every_row():
    head, last, reliabilities = two_entry_parts()
    merged = evaluate._merge(head.items(), last)
    expected = (_signed_sum(merged, reliabilities).hex(), len(merged))
    # every row held at once would take 2016 of the smallest row's bare
    # table, keys and values not counted
    rows = (evaluate._merge([(0, 1), (x, -1)], last) for x in range(1, 128))
    row_size = min(map(sys.getsizeof, rows))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        total, distinct = _split_sum(head, last, reliabilities)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert (total.hex(), distinct) == expected
    assert peak < 2016 * row_size / 2, (peak, row_size)


def one_bucket_of_many_parts():
    """(head, last, reliabilities) of a merge of 3825 unions on ids 0..15.

    The head is one function of eight one-component implementations on ids
    8..15, so its 255 entries fall into two buckets, by coefficient, and
    every part has its own outer; the last function has four on ids 0..3.
    """
    head = _own_map([1 << i for i in range(8, 16)])
    return head, _own_map([1 << i for i in range(4)]), [0.5 + i / 100 for i in range(16)]


@pytest.mark.parametrize(
    "system, held",
    [(two_entry_parts, 256), (one_bucket_of_many_parts, 64)],
    ids=["two-entry-parts", "one-bucket-of-many-parts"],
)
def test_split_sum_holds_at_most_the_memoised_products(system, held):
    head, last, reliabilities = system()
    expected = _split_sum(head, last, reliabilities)
    live = peak = 0

    class Held(float):
        def __del__(self):
            nonlocal live
            live -= 1

    def held_product(field, reliabilities):
        nonlocal live, peak
        live += 1
        peak = max(peak, live)
        return Held(mask_product(field, reliabilities))

    with mock.patch.object(evaluate, "_HELD_PRODUCTS", held):
        with mock.patch.object(evaluate, "mask_product", held_product):
            assert _split_sum(head, last, reliabilities) == expected
    # the chunk-product memo holds at most `held` products and each chunk's
    # column memo at most `held` more, as no row has more keys than that;
    # one more is the product in flight as the memo takes it
    chunks = -(-(max(head) | max(last)).bit_length() // CHUNK_BITS)
    assert peak <= (1 + chunks) * held + 1, peak


def test_split_evaluation_peaks_under_one_and_a_half_megabytes():
    # the golden two-chunks 4^5 system, folded to a head of three functions
    # and a tail of two; a head of four functions peaked at 4.6 MB
    spec = SPLIT[0][0]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        reliability_simplified(spec)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, peak


def test_simplified_never_holds_the_whole_map():
    # the bare table of a dict of every union, keys and values not counted
    spec = generate_random_system(FamilyShape((4, 4, 4, 4)), 24, 0.3, seed=1)
    assert len(_groups([[impl.mask for impl in f] for f in spec.functions])) == 1
    distinct = reliability_simplified(spec).distinct_product_count
    assert distinct == 11_957
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        reliability_simplified(spec)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < sys.getsizeof(dict.fromkeys(range(distinct))), (peak, distinct)


def test_reliability_stays_in_unit_interval():
    spec = generate_random_system(FamilyShape((3, 3)), 10, 0.8, seed=3)
    r = reliability_simplified(spec).reliability
    assert 0.0 <= r <= 1.0


# --- subset enumeration -----------------------------------------------------


def counted_subsets(masks):
    """(union, (-1)^(|S| - 1)) per non-empty S, by an ascending counter, bit j for masks[j]."""
    for counter in range(1, 1 << len(masks)):
        union = 0
        for j, m in enumerate(masks):
            if counter >> j & 1:
                union |= m
        yield union, (-1) ** (counter.bit_count() - 1)


@pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 18])
def test_signed_unions_count_through_every_subset(n):
    # masks past the first table block recurse; the last one repeats the first
    rng = random.Random(n)
    masks = [rng.getrandbits(40) for _ in range(n)]
    if n > 1:
        masks[-1] = masks[0]
    assert list(_signed_unions(masks)) == list(counted_subsets(masks))


def test_one_block_own_map_is_the_accumulated_enumeration(monkeypatch):
    # 16 implementations of three of 20 components: unions repeat and cancel
    rng = random.Random(16)
    masks = [sum(1 << c for c in rng.sample(range(20), 3)) for _ in range(16)]
    expected = _accumulate(_signed_unions(masks))
    assert 0 in expected.values()
    assert list(_own_map(masks).items()) == list(expected.items())
    monkeypatch.setattr(evaluate, "MAX_LIVE_MASKS", len(expected) - 1)
    with pytest.raises(CapExceeded):
        _own_map(masks)
    monkeypatch.setattr(evaluate, "MAX_LIVE_MASKS", len(expected))
    assert _own_map(masks) == expected


# --- guard rails ------------------------------------------------------------


def test_term_caps_enforced(t1):
    with pytest.raises(CapExceeded):
        reliability_simplified(t1, cap_terms=6)
    with pytest.raises(CapExceeded):
        reliability_classical(t1, cap_terms=6)
    assert reliability_simplified(t1, cap_terms=None).reliability == pytest.approx(
        0.2668, abs=1e-12
    )


@pytest.mark.parametrize(
    "refuse",
    [reliability_classical, lambda spec: term_stream(spec, Method.CLASSICAL)],
    ids=["reliability_classical", "term_stream"],
)
def test_classical_cap_is_told_from_w_alone(refuse):
    # 2^(3^30) - 1 terms: the count alone would take 25 TB, so the cap is
    # decided from |W| = 3^30 and the message writes the count as `count` does
    spec = generate_random_system(FamilyShape.uniform(30, 3), 128, 0.0, seed=1)
    message = r"^2\^205891132094649-1 terms exceeds the cap 16777215$"
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match=message):
            refuse(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


@pytest.mark.parametrize(
    "refuse",
    [reliability_simplified, lambda spec: term_stream(spec, Method.SIMPLIFIED)],
    ids=["reliability_simplified", "term_stream"],
)
def test_simplified_cap_message_writes_a_huge_count_as_powers(refuse):
    # 7^5200 terms, 4,395 digits, past the integer-string limit
    spec = SystemSpec(
        name="f5200",
        components=tuple(Component(c, 0.9) for c in range(3)),
        functions=tuple(
            tuple(Implementation(i, c, frozenset({c})) for c in range(3)) for i in range(5200)
        ),
    )
    with pytest.raises(CapExceeded, match=r"^\(2\^3-1\)\^5200 terms exceeds the cap 16777215$"):
        refuse(spec)


def test_invalid_system_rejected(t2):
    with pytest.raises(InvalidSystemError):
        reliability_simplified(t2)
    with pytest.raises(InvalidSystemError):
        reliability_classical(t2)
    with pytest.raises(InvalidSystemError):
        reliability_monte_carlo(t2, 10, 0)


def test_budget_aborts_long_classical_run():
    # 2^16 - 1 subsets; the budget check fires every 8192, so this trips fast
    spec = generate_random_system(FamilyShape((4, 4)), 12, 0.5, seed=0)
    with pytest.raises(EvaluationTimeout):
        reliability_classical(spec, cap_terms=None, budget_seconds=0.0)
    ok = reliability_classical(spec, cap_terms=None, budget_seconds=None)
    assert 0.0 <= ok.reliability <= 1.0


def test_budget_stops_the_product_space_while_it_is_built():
    # 3^14 = 4,782,969 points of W, a list of about 230 MB of masks on 128
    # components; the budget must stop it long before that is held
    spec = generate_random_system(FamilyShape.uniform(14, 3), 128, 0.0, seed=1)
    tracemalloc.start()
    try:
        with pytest.raises(EvaluationTimeout, match="points"):
            reliability_classical(spec, cap_terms=None, budget_seconds=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20, peak


@pytest.mark.parametrize(
    "functions, distinct",
    [
        # two functions sharing component 0 fold into 9 distinct unions
        ([[{0, 1}, {0, 2}], [{0, 3}, {0, 4}]], 9),
        # one function of 4 disjoint implementations: 15 unions and no merge
        ([[{0}, {1}, {2}, {3}]], 15),
        (ABOVE_A_CHUNK, 121_009),
        (SINGLE_ENTRY_PARTS, 14_175),
    ],
    ids=["two-functions", "one-function", "above-a-chunk", "single-entry-parts"],
)
def test_live_mask_cap_stops_the_fold(monkeypatch, functions, distinct):
    # the cap stops exactly the groups whose whole map would pass it
    z = 1 + max(c for function in functions for impl in function for c in impl)
    spec = make_system([0.5] * z, functions)
    expected = reliability_simplified(spec)
    assert expected.distinct_product_count == distinct
    monkeypatch.setattr(evaluate, "MAX_LIVE_MASKS", distinct - 1)
    with pytest.raises(CapExceeded):
        reliability_simplified(spec)
    # the covering-selection stream aggregates to the same map
    with pytest.raises(CapExceeded):
        aggregate_terms(term_stream(spec))
    if len(functions) == 1:
        with pytest.raises(CapExceeded):
            exact_union_probability(spec)
    monkeypatch.setattr(evaluate, "MAX_LIVE_MASKS", distinct)
    report = reliability_simplified(spec)
    assert (report.reliability, report.distinct_product_count) == (
        expected.reliability,
        distinct,
    )


# What one live mask costs in a coefficient map at most: a dict entry of 40
# bytes (tracemalloc, 2^19 entries) and an int key of 44 bytes (128 bits).
MAP_ENTRY_BYTES = 84


def test_live_mask_cap_bounds_the_memory_of_a_refusal(monkeypatch):
    # a shared 4^5 system as eval-shared draws them, 565,935 distinct unions,
    # whose whole evaluation peaks at about 670 kB; the fold of its head of
    # three functions reaches 3375 unions.  A merge holds the map it reads
    # and the map it builds, so two maps at the cap bound the peak of a
    # refusal, which a check after the head's last merge would break
    spec = generate_random_system(FamilyShape.uniform(5, 4), 40, 0.3, seed=1)
    cap = 1024
    monkeypatch.setattr(evaluate, "MAX_LIVE_MASKS", cap)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            reliability_simplified(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * cap * MAP_ENTRY_BYTES, peak


@pytest.mark.parametrize(
    "spec",
    [
        # 2^16 - 1 subsets; the map is checked every 8192 of them
        generate_random_system(FamilyShape((4, 4)), 12, 0.5, seed=0),
        # 15 subsets with 9 distinct unions: only the final check sees them
        make_system([0.5] * 4, [[{0}, {1}], [{2}, {3}]]),
    ],
    ids=["65535-subsets", "15-subsets"],
)
def test_live_mask_cap_stops_the_classical_map(monkeypatch, spec):
    assert reliability_classical(spec, cap_terms=None).distinct_product_count > 8
    monkeypatch.setattr(evaluate, "MAX_LIVE_MASKS", 8)
    with pytest.raises(CapExceeded):
        reliability_classical(spec, cap_terms=None)


# --- sampling ---------------------------------------------------------------


@pytest.mark.parametrize(
    "spec, exact",
    [
        (None, 0.2668),
        *(
            (make_system([p], [[{0}]]), p)
            for p in (0.05, 0.95, 0.1 + 2**-40)
        ),
    ],
    ids=["t1", "p=0.05", "p=0.95", "p=0.1+2^-40"],
)
def test_monte_carlo_near_exact(t1, spec, exact):
    rep = reliability_monte_carlo(spec or t1, 200_000, seed=0)
    assert rep.samples == 200_000
    assert rep.standard_error is not None and rep.standard_error > 0
    assert abs(rep.reliability - exact) < 4 * rep.standard_error


def test_monte_carlo_deterministic(t1):
    a = reliability_monte_carlo(t1, 50_000, seed=9)
    b = reliability_monte_carlo(t1, 50_000, seed=9)
    assert a.reliability == b.reliability


def test_monte_carlo_rejects_bad_samples(t1):
    with pytest.raises(ValueError):
        reliability_monte_carlo(t1, 0, seed=0)


def test_monte_carlo_rejects_negative_seed(t1):
    with pytest.raises(ValueError):
        reliability_monte_carlo(t1, 10, seed=-3)


def test_monte_carlo_chunking_is_seamless(t1):
    # one full chunk plus 7 samples: a wrongly sized last chunk or a lost
    # bit moves these estimates off their exact values
    samples = (1 << 17) + 7
    whole = reliability_monte_carlo(t1, samples, seed=1)
    assert 0.0 <= whole.reliability <= 1.0
    assert whole.term_count == samples
    almost_sure = make_system([math.nextafter(1.0, 0.0)], [[{0}]])
    assert reliability_monte_carlo(almost_sure, samples, seed=1).reliability == 1.0
    almost_never = make_system([5e-324], [[{0}]])
    assert reliability_monte_carlo(almost_never, samples, seed=1).reliability == 0.0


# --- term streams -----------------------------------------------------------


def test_t1_simplified_stream_exact(t1):
    events = [(e.component_mask, e.coefficient) for e in term_stream(t1, "simplified")]
    # the fold's order: last function fastest, each function's subsets in
    # ascending binary-counter order
    assert events == [
        (7, 1),
        (14, 1),
        (15, -1),
        (24, 1),
        (31, -1),
        (30, -1),
        (31, 1),
    ]


def test_t1_aggregate_drops_cancelled_mask(t1):
    agg = aggregate_terms(term_stream(t1, Method.SIMPLIFIED))
    assert agg == {7: 1, 14: 1, 24: 1, 15: -1, 30: -1}


def test_exact_methods_aggregate_identically(t1):
    a = aggregate_terms(term_stream(t1, Method.SIMPLIFIED))
    b = aggregate_terms(term_stream(t1, Method.CLASSICAL))
    assert a == b


@given(spec=small_systems)
def test_aggregates_match_on_random_systems(spec):
    a = aggregate_terms(term_stream(spec, Method.SIMPLIFIED, cap_terms=None))
    b = aggregate_terms(term_stream(spec, Method.CLASSICAL, cap_terms=None))
    assert a == b
    # the stream's terms against the covering-selection enumerator, which
    # shares no code with the engine
    shape = spec.shape
    expected = Counter()
    for k in range(shape.n, shape.m + 1):
        for selection in enumerate_covering_selections(shape, k):
            union = 0
            for i, j in selection:
                union |= spec.functions[i][j].mask
            expected[union, (-1) ** (k - shape.n)] += 1
    stream = term_stream(spec, Method.SIMPLIFIED, cap_terms=None)
    assert Counter((e.component_mask, e.coefficient) for e in stream) == expected


def test_stream_sum_reproduces_reliability(t1):
    rel = {c.id: c.reliability for c in t1.components}

    def product(mask):
        p = 1.0
        for cid, r in rel.items():
            if mask >> cid & 1:
                p *= r
        return p

    total = math.fsum(
        e.coefficient * product(e.component_mask) for e in term_stream(t1, "classical")
    )
    assert total == pytest.approx(reliability_classical(t1).reliability, abs=1e-14)


def test_stream_cap_and_method_validation(t1):
    with pytest.raises(CapExceeded):
        list(term_stream(t1, Method.SIMPLIFIED, cap_terms=3))
    with pytest.raises(ValueError):
        term_stream(t1, Method.MONTE_CARLO)
    with pytest.raises(ValueError):
        term_stream(t1, "no-such-method")


def test_stream_lengths_match_counters(t1):
    assert len(list(term_stream(t1, Method.SIMPLIFIED))) == 7
    assert len(list(term_stream(t1, Method.CLASSICAL))) == 7
