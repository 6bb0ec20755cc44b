import pytest
from hypothesis import given, strategies as st

from relcover import (
    CapExceeded,
    Component,
    FamilyShape,
    Implementation,
    InvalidSystemError,
    SearchConfig,
    SystemSpec,
    bound_summary,
    dawson_sankoff_bound,
    exact_union_probability,
    generate_random_system,
    load_system,
    nonmonotonicity_search,
    pairwise_sums,
    reliability_classical,
    reliability_simplified,
)

single_function_systems = st.builds(
    lambda events, seed, sharing: generate_random_system(
        FamilyShape((events,)), 6, sharing, seed
    ),
    events=st.integers(1, 4),
    seed=st.integers(0, 10**6),
    sharing=st.floats(0.0, 1.0),
)


# --- moments ----------------------------------------------------------------


def test_t1_moments(t1):
    s1, s2 = pairwise_sums(t1)
    # events 0.07, 0.084, 0.18; pairwise 0.042, 0.0126, 0.0252
    assert s1 == pytest.approx(0.334, abs=1e-12)
    assert s2 == pytest.approx(0.0798, abs=1e-12)


def test_t3_moments(t3):
    s1, s2 = pairwise_sums(t3)
    assert s1 == pytest.approx(0.435, abs=1e-12)
    assert s2 == pytest.approx(0.1404, abs=1e-12)


def test_duplicate_events_count_twice(t2):
    # two identical events of probability p contribute 2p to S1 and p to S2
    s1, s2 = pairwise_sums(t2)
    assert s1 == pytest.approx(0.35647, abs=1e-12)
    assert s2 == pytest.approx(0.1199996, abs=1e-12)


def test_moments_need_single_function(fixtures_dir):
    two = load_system(fixtures_dir / "dms_two_door.json")
    with pytest.raises(ValueError):
        pairwise_sums(two)
    with pytest.raises(ValueError):
        exact_union_probability(two)


def test_hard_violations_still_rejected():
    spec = SystemSpec(
        "broken",
        (Component(0, 0.5),),
        ((Implementation(0, 0, frozenset({0, 9})),),),
    )
    with pytest.raises(InvalidSystemError):
        pairwise_sums(spec)


# --- bound values -----------------------------------------------------------


def test_t1_bounds(t1):
    b = bound_summary(t1)
    assert b.theta == pytest.approx(0.47784431137724553, abs=1e-12)
    assert b.bound_full == pytest.approx(0.2542, abs=1e-12)
    assert b.bound_relaxed == pytest.approx(0.22600486223662883, abs=1e-12)
    assert b.bound_relaxed == pytest.approx(t1.claimed["claimed_lower_bound"], abs=1e-7)


def test_t2_bounds(t2):
    b = bound_summary(t2)
    assert b.bound_full == pytest.approx(0.2364704, abs=1e-12)
    assert b.bound_relaxed == pytest.approx(0.21303842830442876, abs=1e-12)


def test_t3_bounds(t3):
    b = bound_summary(t3)
    assert b.bound_full == pytest.approx(0.2946, abs=1e-12)
    assert b.bound_relaxed == pytest.approx(0.26435456831517185, abs=1e-12)


def test_stored_claims_differ_from_computed_values(t2, t3):
    # the bundled t2/t3 claim fields do not reproduce; both sides are kept so
    # the discrepancy stays visible
    assert exact_union_probability(t2) == pytest.approx(0.2523527, abs=1e-12)
    assert abs(exact_union_probability(t2) - t2.claimed["claimed_reliability"]) > 1e-3
    assert abs(bound_summary(t2).bound_relaxed - t2.claimed["claimed_lower_bound"]) > 1e-3
    assert exact_union_probability(t3) == pytest.approx(0.3135, abs=1e-12)
    assert abs(exact_union_probability(t3) - t3.claimed["claimed_reliability"]) > 1e-3
    assert abs(bound_summary(t3).bound_relaxed - t3.claimed["claimed_lower_bound"]) > 1e-3


def test_disjoint_events_make_the_bound_tight():
    b = dawson_sankoff_bound(0.3, 0.0)
    assert b.theta == 0.0
    assert b.bound_full == pytest.approx(0.3, abs=1e-15)
    assert b.bound_relaxed == pytest.approx(0.3, abs=1e-15)


def test_bound_input_validation():
    with pytest.raises(ValueError):
        dawson_sankoff_bound(0.0, 0.1)
    with pytest.raises(ValueError):
        dawson_sankoff_bound(0.5, -0.1)


def test_exact_union_matches_evaluator(t1):
    assert exact_union_probability(t1) == pytest.approx(0.2668, abs=1e-12)
    assert exact_union_probability(t1) == pytest.approx(
        reliability_simplified(t1).reliability, abs=1e-12
    )


def test_exact_union_tolerates_duplicates(t2):
    # the evaluator refuses duplicate sets, the union probability does not
    with pytest.raises(InvalidSystemError):
        reliability_simplified(t2)
    assert exact_union_probability(t2) == pytest.approx(0.2523527, abs=1e-12)


def test_exact_union_refuses_a_huge_count_by_cap():
    # 2^15000 - 1 terms, past the integer-string limit, written as powers
    spec = SystemSpec(
        name="e15000",
        components=tuple(Component(c, 0.5) for c in range(128)),
        functions=(tuple(Implementation(0, j, frozenset({j % 128})) for j in range(15000)),),
    )
    with pytest.raises(CapExceeded, match=r"^\(2\^15000-1\) terms exceeds the cap 16777215$"):
        exact_union_probability(spec)


@given(spec=single_function_systems)
def test_bound_never_exceeds_exact(spec):
    b = bound_summary(spec)
    exact = exact_union_probability(spec)
    assert 0.0 <= b.theta < 1.0
    assert b.bound_relaxed <= b.bound_full + 1e-15
    assert b.bound_full <= exact + 1e-12
    assert b.bound_relaxed > 0.0


# --- inversion search -------------------------------------------------------


def test_search_finds_frozen_witness():
    witnesses = nonmonotonicity_search(SearchConfig(), trials=40, seed=1)
    assert [w.trial for w in witnesses] == [12]
    w = witnesses[0]
    assert w.reliability_low == pytest.approx(0.270632290452391, abs=1e-12)
    assert w.reliability_high == pytest.approx(0.27817186748441286, abs=1e-12)
    assert w.bound_low == pytest.approx(0.24603902370946926, abs=1e-12)
    assert w.bound_high == pytest.approx(0.2160674410068437, abs=1e-12)


def test_search_is_deterministic():
    a = nonmonotonicity_search(SearchConfig(), trials=20, seed=3)
    b = nonmonotonicity_search(SearchConfig(), trials=20, seed=3)
    assert [(w.trial, w.reliability_low, w.bound_low) for w in a] == [
        (w.trial, w.reliability_low, w.bound_low) for w in b
    ]


def test_witnesses_satisfy_their_definition():
    witnesses = nonmonotonicity_search(SearchConfig(), trials=40, seed=1)
    assert witnesses
    for w in witnesses:
        assert w.reliability_low < w.reliability_high
        assert w.bound_low > w.bound_high
        # stored numbers reproduce from the stored systems
        assert reliability_simplified(w.low).reliability == pytest.approx(
            w.reliability_low, abs=1e-12
        )
        assert bound_summary(w.high).bound_relaxed == pytest.approx(
            w.bound_high, abs=1e-12
        )


def test_search_rejects_bad_trials():
    with pytest.raises(ValueError):
        nonmonotonicity_search(SearchConfig(), trials=0, seed=0)


def test_search_rejects_negative_seed():
    # random.Random(-1) would silently replay seed 1
    with pytest.raises(ValueError, match="seed"):
        nonmonotonicity_search(SearchConfig(), trials=1, seed=-1)


def test_witness_fixtures_survive_classical_recheck(fixtures_dir):
    low = load_system(fixtures_dir / "witness_low.json")
    high = load_system(fixtures_dir / "witness_high.json")
    rel_low = reliability_classical(low).reliability
    rel_high = reliability_classical(high).reliability
    assert rel_low == pytest.approx(0.270632290452391, abs=1e-12)
    assert rel_high == pytest.approx(0.27817186748441286, abs=1e-12)
    assert rel_low < rel_high
    assert bound_summary(low).bound_relaxed > bound_summary(high).bound_relaxed
