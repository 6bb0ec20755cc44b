import math

import pytest
from hypothesis import given, strategies as st

from relcover import (
    CapExceeded,
    CoveringSelection,
    DisjointFamily,
    FamilyShape,
    alternating_coefficient_sum,
    coefficient_count,
    coefficient_count_bruteforce,
    count_covering_selections,
    count_terms_classical,
    count_terms_simplified,
    enumerate_covering_selections,
    subset_product_size,
)

small_shapes = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
    lambda s: FamilyShape(tuple(s))
)


# --- selections and families ----------------------------------------------


def test_selection_rejects_empty_and_unsorted():
    with pytest.raises(ValueError):
        CoveringSelection(())
    with pytest.raises(ValueError):
        CoveringSelection(((1, 0), (0, 0)))
    with pytest.raises(ValueError):
        CoveringSelection(((0, 0), (0, 0)))


def test_selection_accessors():
    sel = CoveringSelection(((0, 0), (0, 2), (1, 1)))
    assert sel.k == 3
    assert sel.functions_covered() == frozenset({0, 1})


def test_family_rejects_bad_blocks():
    with pytest.raises(ValueError):
        DisjointFamily(())
    with pytest.raises(ValueError):
        DisjointFamily((frozenset(),))
    with pytest.raises(ValueError):
        DisjointFamily((frozenset({1, 2}), frozenset({2, 3})))


def test_family_of_sizes():
    fam = DisjointFamily.of_sizes((2, 3))
    assert fam.blocks == (frozenset({0, 1}), frozenset({2, 3, 4}))
    assert fam.k == 5
    assert fam.universe == frozenset(range(5))
    assert fam.elements() == (0, 1, 2, 3, 4)
    assert fam.product_size() == 6


def test_family_accepts_any_hashable_labels():
    fam = DisjointFamily((frozenset({"a", "b"}), frozenset({"c"})))
    assert fam.product_size() == 2
    assert coefficient_count(fam, 2) == 1


# --- covering selections ----------------------------------------------------


def test_covering_selections_2x2_by_hand():
    shape = FamilyShape((2, 2))
    got = {
        k: [sel.chosen for sel in enumerate_covering_selections(shape, k)]
        for k in range(2, 5)
    }
    assert got[2] == [
        ((0, 0), (1, 0)),
        ((0, 0), (1, 1)),
        ((0, 1), (1, 0)),
        ((0, 1), (1, 1)),
    ]
    assert got[3] == [
        ((0, 0), (1, 0), (1, 1)),
        ((0, 1), (1, 0), (1, 1)),
        ((0, 0), (0, 1), (1, 0)),
        ((0, 0), (0, 1), (1, 1)),
    ]
    assert got[4] == [((0, 0), (0, 1), (1, 0), (1, 1))]
    assert sum(len(v) for v in got.values()) == count_terms_simplified(shape) == 9


def test_covering_k_range_enforced():
    shape = FamilyShape((2, 2))
    with pytest.raises(ValueError):
        enumerate_covering_selections(shape, 1)
    with pytest.raises(ValueError):
        count_covering_selections(shape, 5)


def test_enumeration_is_repeatable():
    shape = FamilyShape((3, 2))
    first = [s.chosen for s in enumerate_covering_selections(shape, 3)]
    second = [s.chosen for s in enumerate_covering_selections(shape, 3)]
    assert first == second


@given(shape=small_shapes)
def test_selections_cover_and_count(shape):
    seen = set()
    for k in range(shape.n, shape.m + 1):
        sels = list(enumerate_covering_selections(shape, k))
        assert len(sels) == count_covering_selections(shape, k)
        for sel in sels:
            assert sel.k == k
            assert sel.functions_covered() == frozenset(range(shape.n))
            assert sel.chosen not in seen
            seen.add(sel.chosen)
    assert len(seen) == count_terms_simplified(shape)


@given(shape=small_shapes)
def test_counts_at_extreme_cardinalities(shape):
    assert count_covering_selections(shape, shape.n) == shape.product_size
    assert count_covering_selections(shape, shape.m) == 1


# --- term counters ----------------------------------------------------------


def test_term_counts_small():
    assert count_terms_classical(FamilyShape((2, 2))) == 15
    assert count_terms_simplified(FamilyShape((2, 2))) == 9
    assert count_terms_classical(FamilyShape((3,))) == 7
    assert count_terms_simplified(FamilyShape((3,))) == 7


def test_term_counts_grow_exactly():
    assert count_terms_classical(FamilyShape.uniform(3, 3)) == 134217727
    assert count_terms_classical(FamilyShape.uniform(3, 4)) == 18446744073709551615
    assert (
        count_terms_classical(FamilyShape.uniform(4, 3))
        == 2417851639229258349412351
    )
    assert count_terms_classical(FamilyShape.uniform(5, 3)) == (1 << 243) - 1
    assert count_terms_simplified(FamilyShape.uniform(3, 3)) == 343
    assert count_terms_simplified(FamilyShape.uniform(3, 4)) == 3375
    assert count_terms_simplified(FamilyShape.uniform(4, 3)) == 2401
    assert count_terms_simplified(FamilyShape.uniform(5, 3)) == 16807


@given(shape=small_shapes)
def test_simplified_never_exceeds_classical(shape):
    simp = count_terms_simplified(shape)
    clas = count_terms_classical(shape)
    assert simp <= clas
    # ties happen exactly when at most one function offers a real choice;
    # with two or more multi-implementation functions the gap is strict
    assert (simp == clas) == (sum(1 for t in shape.sizes if t > 1) <= 1)


# --- coverage coefficients ---------------------------------------------------


def test_subset_product_size():
    fam = DisjointFamily.of_sizes((2, 2))
    assert subset_product_size(fam, frozenset({0, 2, 3})) == 2
    assert subset_product_size(fam, frozenset({0, 1})) == 0
    assert subset_product_size(fam, fam.universe) == 4
    with pytest.raises(ValueError):
        subset_product_size(fam, frozenset({9}))


def test_coefficient_count_by_hand():
    # blocks {0,1} and {2}: D = {(0,2), (1,2)}; only the full pair covers
    fam = DisjointFamily.of_sizes((2, 1))
    assert coefficient_count(fam, 1) == 0
    assert coefficient_count(fam, 2) == 1
    assert coefficient_count(fam, 3) == 0


def test_coefficient_count_single_block():
    # one block of 3: D is the block itself, and a subset uses every element
    # of the family only when it is all of D
    fam = DisjointFamily.of_sizes((3,))
    assert [coefficient_count(fam, t) for t in (1, 2, 3)] == [0, 0, 1]


def test_coefficient_count_rejects_bad_t():
    fam = DisjointFamily.of_sizes((2, 1))
    with pytest.raises(ValueError):
        coefficient_count(fam, 0)
    with pytest.raises(ValueError):
        coefficient_count_bruteforce(fam, 0)


def test_coefficient_totals_are_subset_counts():
    # summing c(A, t) over all t counts the covering subsets of D, and the
    # remaining subsets of D are exactly the non-covering ones
    fam = DisjointFamily.of_sizes((2, 2))
    d = fam.product_size()
    covering = sum(coefficient_count(fam, t) for t in range(1, d + 1))
    assert covering == sum(
        coefficient_count_bruteforce(fam, t) for t in range(1, d + 1)
    )
    assert 0 < covering < 2**d - 1


def test_bruteforce_cap():
    with pytest.raises(CapExceeded):
        coefficient_count_bruteforce(DisjointFamily.of_sizes((5, 5)), 2)
    assert coefficient_count_bruteforce(DisjointFamily.of_sizes((5, 5)), 25, cap=25) == 1


@given(
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    data=st.data(),
)
def test_formula_matches_exhaustive_recount(sizes, data):
    fam = DisjointFamily.of_sizes(tuple(sizes))
    t = data.draw(st.integers(1, fam.product_size()))
    assert coefficient_count(fam, t) == coefficient_count_bruteforce(fam, t)


def test_formula_matches_exhaustive_recount_3d():
    fam = DisjointFamily.of_sizes((2, 2, 2))
    for t in range(1, 9):
        assert coefficient_count(fam, t) == coefficient_count_bruteforce(fam, t)


@given(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=2))
def test_alternating_sum_collapses(sizes):
    fam = DisjointFamily.of_sizes(tuple(sizes))
    expected = 1 if (fam.k - len(fam.blocks)) % 2 == 0 else -1
    assert alternating_coefficient_sum(fam) == expected
