import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from relcover import (
    CapExceeded,
    Component,
    EvaluationReport,
    EvaluationTimeout,
    FamilyShape,
    Implementation,
    InvalidSystemError,
    Method,
    SystemSpec,
    aggregate_terms,
    exact_union_probability,
    generate_random_system,
    reliability_classical,
    reliability_monte_carlo,
    reliability_simplified,
    term_stream,
)


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


def test_runs_are_bit_identical():
    spec = generate_random_system(FamilyShape((2, 3)), 10, 0.5, seed=11)
    a = reliability_simplified(spec).reliability
    b = reliability_simplified(spec).reliability
    assert a == b
    c = reliability_classical(spec).reliability
    d = reliability_classical(spec).reliability
    assert c == d


def test_reliability_stays_in_unit_interval():
    spec = generate_random_system(FamilyShape((3, 3)), 10, 0.8, seed=3)
    r = reliability_simplified(spec).reliability
    assert 0.0 <= r <= 1.0


def test_display_reliability_clamps():
    rep = EvaluationReport(Method.SIMPLIFIED, 1.0 + 1e-12, 1, 1, 0.0)
    assert rep.display_reliability == 1.0
    rep = EvaluationReport(Method.SIMPLIFIED, -1e-12, 1, 1, 0.0)
    assert rep.display_reliability == 0.0


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


# --- sampling ---------------------------------------------------------------


def test_monte_carlo_near_exact(t1):
    rep = reliability_monte_carlo(t1, 200_000, seed=0)
    assert rep.samples == 200_000
    assert rep.standard_error is not None and rep.standard_error > 0
    assert abs(rep.reliability - 0.2668) < 4 * rep.standard_error


def test_monte_carlo_deterministic(t1):
    a = reliability_monte_carlo(t1, 50_000, seed=9)
    b = reliability_monte_carlo(t1, 50_000, seed=9)
    assert a.reliability == b.reliability


def test_monte_carlo_rejects_bad_samples(t1):
    with pytest.raises(ValueError):
        reliability_monte_carlo(t1, 0, seed=0)


def test_monte_carlo_chunking_is_seamless(t1):
    # crossing the chunk boundary must not change the estimate for a seed
    whole = reliability_monte_carlo(t1, (1 << 17) + 7, seed=1)
    assert 0.0 <= whole.reliability <= 1.0
    assert whole.term_count == (1 << 17) + 7


# --- term streams -----------------------------------------------------------


def test_t1_simplified_stream_exact(t1):
    events = [(e.component_mask, e.coefficient) for e in term_stream(t1, "simplified")]
    assert events == [
        (7, 1),
        (14, 1),
        (24, 1),
        (15, -1),
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
