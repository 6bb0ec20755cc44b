import itertools
import math
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
    _ChunkProducts,
    _fold,
    _group_sum,
    _groups,
    _multiply,
    _own_map,
    _signed_sum,
    _split_sum,
)
from relcover.system import CHUNK_BITS, mask_product, reliability_array


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
    masks = list(coefficients)
    table = _ChunkProducts(reliabilities, max(masks).bit_length() or 1)
    factors = [[table[m & chunk] for m in masks] for chunk in table.chunks]
    products = list(_multiply(factors))
    assert [p.hex() for p in products] == [
        mask_product(m, reliabilities).hex() for m in masks
    ]
    # every field product the table memoised is that field's own product
    assert table
    for field, p in table.items():
        assert any(field & ~chunk == 0 for chunk in table.chunks)
        assert p.hex() == mask_product(field, reliabilities).hex()


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
                    total, distinct = _split_sum(built, last, masks[-1], reliabilities)
                assert merge.call_count == len(signatures)
                assert (total.hex(), distinct) == expected


def test_split_sum_never_holds_every_row():
    # 2016 parts of two entries each, outers on ids 7..17, every one with its
    # own pair of patterns inside the last function's support, ids 0..6
    last_masks = [1 << i for i in range(7)]
    pairs = list(itertools.islice(itertools.combinations(range(128), 2), 2016))
    head = {}
    for outer, pair in enumerate(pairs, 1):
        for x, c in zip(pair, (1, -1)):
            head[outer << 7 | x] = c
    last = _own_map(last_masks)
    reliabilities = [0.5 + i / 100 for i in range(18)]
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
        total, distinct = _split_sum(head, last, last_masks, reliabilities)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert (total.hex(), distinct) == expected
    assert peak < 2016 * row_size / 2, (peak, row_size)


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


# --- guard rails ------------------------------------------------------------


def test_term_caps_enforced(t1):
    with pytest.raises(CapExceeded):
        reliability_simplified(t1, cap_terms=6)
    with pytest.raises(CapExceeded):
        reliability_classical(t1, cap_terms=6)
    assert reliability_simplified(t1, cap_terms=None).reliability == pytest.approx(
        0.2668, abs=1e-12
    )


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
