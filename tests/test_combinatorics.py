import time

import pytest
from hypothesis import given, strategies as st

from relcover import (
    CapExceeded,
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
from relcover.combinatorics import check_classical_terms, simplified_terms_within

small_shapes = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
    lambda s: FamilyShape(tuple(s))
)


# --- covering selections ----------------------------------------------------


def test_covering_selections_2x2_by_hand():
    shape = FamilyShape((2, 2))
    got = {
        k: list(enumerate_covering_selections(shape, k))
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
    first = list(enumerate_covering_selections(shape, 3))
    second = list(enumerate_covering_selections(shape, 3))
    assert first == second


@given(shape=small_shapes)
def test_selections_cover_and_count(shape):
    seen = set()
    for k in range(shape.n, shape.m + 1):
        sels = list(enumerate_covering_selections(shape, k))
        assert len(sels) == count_covering_selections(shape, k)
        for sel in sels:
            assert list(sel) == sorted(set(sel))
            assert len(sel) == k
            assert {i for i, _ in sel} == set(range(shape.n))
            assert sel not in seen
            seen.add(sel)
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


def test_simplified_count_of_many_functions_is_fast():
    # a running product of 2x10^5 factors 7 takes about 2 s
    shape = FamilyShape((3,) * 200_000)
    start = time.perf_counter()
    count = count_terms_simplified(shape)
    assert time.perf_counter() - start < 0.5
    assert count.bit_length() == 561_471


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
    shape = FamilyShape((2, 2))
    assert subset_product_size(shape, {(0, 0), (1, 0), (1, 1)}) == 2
    assert subset_product_size(shape, [(0, 0), (0, 1)]) == 0
    assert subset_product_size(shape, {(0, 0), (0, 1), (1, 0), (1, 1)}) == 4
    for outside in ((2, 0), (0, 2)):
        with pytest.raises(ValueError):
            subset_product_size(shape, {(0, 0), outside})


def test_coefficient_count_by_hand():
    # A_1 = {(0,0), (0,1)} and A_2 = {(1,0)}: D has two points; only the
    # full pair covers
    shape = FamilyShape((2, 1))
    assert coefficient_count(shape, 1) == 0
    assert coefficient_count(shape, 2) == 1
    assert coefficient_count(shape, 3) == 0


def test_coefficient_count_single_block():
    # one block of 3: D is the block itself, and a subset uses every element
    # of the family only when it is all of D
    shape = FamilyShape((3,))
    assert [coefficient_count(shape, t) for t in (1, 2, 3)] == [0, 0, 1]


def test_coefficient_count_rejects_bad_t():
    shape = FamilyShape((2, 1))
    with pytest.raises(ValueError):
        coefficient_count(shape, 0)
    with pytest.raises(ValueError):
        coefficient_count_bruteforce(shape, 0)


def test_coefficient_totals_are_subset_counts():
    # summing c(A, t) over all t counts the covering subsets of D, and the
    # remaining subsets of D are exactly the non-covering ones
    shape = FamilyShape((2, 2))
    d = shape.product_size
    covering = sum(coefficient_count(shape, t) for t in range(1, d + 1))
    assert covering == sum(
        coefficient_count_bruteforce(shape, t) for t in range(1, d + 1)
    )
    assert 0 < covering < 2**d - 1


def test_bruteforce_cap():
    with pytest.raises(CapExceeded):
        coefficient_count_bruteforce(FamilyShape((5, 5)), 2)
    assert coefficient_count_bruteforce(FamilyShape((5, 5)), 25, cap=25) == 1


def test_bruteforce_refusal_writes_a_huge_product_space_as_powers():
    # |W| = 3^10000 has 4,772 digits, past the integer-string limit
    message = r"^product space has \(3\^10000\) elements, cap is 22$"
    with pytest.raises(CapExceeded, match=message):
        coefficient_count_bruteforce(FamilyShape((3,) * 10000), 1)


@given(st.integers(1, 300), st.integers(-2, 1), st.integers(-(1 << 310), 1 << 310))
def test_classical_cap_check_matches_the_count(w, near, far):
    shape = FamilyShape((w,))  # |W| = w
    count = count_terms_classical(shape)
    for cap in (count + near, far, -3):
        if count > cap:
            with pytest.raises(CapExceeded, match=f"^{count} terms exceeds the cap {cap}$"):
                check_classical_terms(shape, cap)
        else:
            check_classical_terms(shape, cap)
    check_classical_terms(FamilyShape.uniform(30, 3), None)


@given(small_shapes, st.integers(-2, 1))
def test_simplified_cap_refuses_past_the_count(shape, near):
    count = count_terms_simplified(shape)
    assert simplified_terms_within(shape, None) == count
    cap = count + near
    if count > cap:
        with pytest.raises(CapExceeded, match=f"^{count} terms exceeds the cap {cap}$"):
            simplified_terms_within(shape, cap)
    else:
        assert simplified_terms_within(shape, cap) == count


@pytest.mark.parametrize("refuse", [check_classical_terms, simplified_terms_within])
def test_cap_past_4096_bits_is_written_by_its_bit_length(refuse):
    # str() of the cap itself would raise the 4300-digit ValueError
    with pytest.raises(CapExceeded, match=r"exceeds the cap \(a 20001-bit number\)$") as caught:
        refuse(FamilyShape((3,) * 20000), 1 << 20000)
    assert len(str(caught.value)) < 200


@given(
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    data=st.data(),
)
def test_formula_matches_exhaustive_recount(sizes, data):
    shape = FamilyShape(tuple(sizes))
    t = data.draw(st.integers(1, shape.product_size))
    assert coefficient_count(shape, t) == coefficient_count_bruteforce(shape, t)


def test_formula_matches_exhaustive_recount_3d():
    shape = FamilyShape((2, 2, 2))
    for t in range(1, 9):
        assert coefficient_count(shape, t) == coefficient_count_bruteforce(shape, t)


@given(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=2))
def test_alternating_sum_collapses(sizes):
    shape = FamilyShape(tuple(sizes))
    expected = 1 if (shape.m - shape.n) % 2 == 0 else -1
    assert alternating_coefficient_sum(shape) == expected
