"""Release gate: every promised property, one PASS/FAIL line per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see the lines; each criterion
also carries a wall-clock budget and fails when it runs over.
"""

import decimal
import itertools
import time
from contextlib import contextmanager

import pytest

from relcover import (
    EvaluationTimeout,
    FamilyShape,
    Method,
    SearchConfig,
    aggregate_terms,
    alternating_coefficient_sum,
    bound_summary,
    coefficient_count,
    coefficient_count_bruteforce,
    count_covering_selections,
    count_terms_classical,
    count_terms_simplified,
    enumerate_covering_selections,
    generate_random_system,
    load_system,
    nonmonotonicity_search,
    reliability_classical,
    reliability_monte_carlo,
    reliability_simplified,
    term_stream,
    validate_system,
)


@contextmanager
def criterion(label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE FAIL: {label}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(
            f"\nACCEPTANCE FAIL: {label} "
            f"(took {elapsed:.1f}s, budget {budget_seconds:.0f}s)",
            flush=True,
        )
        raise AssertionError(
            f"{label}: {elapsed:.1f}s exceeded the {budget_seconds:.0f}s budget"
        )
    print(
        f"\nACCEPTANCE PASS: {label} ({elapsed:.1f}s of {budget_seconds:.0f}s budget)",
        flush=True,
    )


def sci3_matches(value: int, mantissa: str, exponent: int) -> bool:
    """True when `value` renders as mantissa x 10^exponent at 3 significant
    digits, accepting either truncation or round-half-up of the mantissa."""
    d = decimal.Decimal(value)
    if d.adjusted() != exponent:
        return False
    target = decimal.Decimal(mantissa)
    for rounding in (decimal.ROUND_DOWN, decimal.ROUND_HALF_UP):
        scaled = decimal.Context(prec=3, rounding=rounding).create_decimal(d)
        if scaled.scaleb(-exponent) == target:
            return True
    return False


def test_c1_term_count_tables():
    with criterion("C1 term-count growth tables", 1.0):
        assert count_terms_classical(FamilyShape.uniform(2, 2)) == 15
        for n, t, mantissa, exponent in (
            (2, 3, "5.11", 2),
            (2, 4, "6.55", 4),
            (3, 2, "2.55", 2),
            (4, 2, "6.55", 4),
            (4, 3, "2.41", 24),
            (5, 2, "4.29", 9),
            (5, 3, "1.41", 73),
        ):
            value = count_terms_classical(FamilyShape.uniform(n, t))
            assert value == 2 ** (t**n) - 1
            assert sci3_matches(value, mantissa, exponent), (n, t, value)

        # Two rows of the quoted growth table print 1.34e7 and 1.84e17, one
        # order of magnitude below what the defining count 2^|W| - 1 yields
        # for these shapes (exponent slips).  The formula values are pinned
        # and the slipped exponents are asserted to not match.
        assert count_terms_classical(FamilyShape.uniform(3, 3)) == 2**27 - 1
        assert sci3_matches(2**27 - 1, "1.34", 8)
        assert not sci3_matches(2**27 - 1, "1.34", 7)
        assert count_terms_classical(FamilyShape.uniform(3, 4)) == 2**64 - 1
        assert sci3_matches(2**64 - 1, "1.84", 19)
        assert not sci3_matches(2**64 - 1, "1.84", 17)

        expected_simplified = {
            (2, 2): 9,
            (2, 3): 49,
            (2, 4): 225,
            (3, 2): 27,
            (3, 3): 343,
            (3, 4): 3375,
            (4, 2): 81,
            (4, 3): 2401,
            (5, 2): 243,
            (5, 3): 16807,
        }
        for (n, t), want in expected_simplified.items():
            assert count_terms_simplified(FamilyShape.uniform(n, t)) == want


def test_c2_covering_selection_totals():
    with criterion("C2 covering-selection total identity", 10.0):
        for n in range(1, 5):
            for sizes in itertools.product((1, 2, 3), repeat=n):
                shape = FamilyShape(sizes)
                total = 0
                for k in range(shape.n, shape.m + 1):
                    selections = list(enumerate_covering_selections(shape, k))
                    assert len(selections) == count_covering_selections(shape, k)
                    total += len(selections)
                assert total == count_terms_simplified(shape), sizes


def test_c3_coefficient_formula_vs_recount():
    with criterion("C3 coverage coefficients vs exhaustive recount", 60.0):
        for n in (1, 2, 3):
            for sizes in itertools.product((1, 2, 3), repeat=n):
                shape = FamilyShape(sizes)
                for t in range(1, shape.product_size + 1):
                    formula = coefficient_count(shape, t)
                    recount = coefficient_count_bruteforce(shape, t, cap=27)
                    assert formula == recount, (sizes, t, formula, recount)


def test_c4_alternating_sum_collapse():
    def compositions(total):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                yield (first,) + rest

    with criterion("C4 alternating coefficient sum collapse", 60.0):
        for k in range(1, 8):
            for sizes in compositions(k):
                expected = 1 if (k - len(sizes)) % 2 == 0 else -1
                assert alternating_coefficient_sum(FamilyShape(sizes)) == expected, sizes


def test_c5_evaluator_agreement():
    shapes = [
        (2, 2),
        (3, 2),
        (2, 3),
        (2, 2, 2),
        (4, 2),
        (3, 3),
        (2, 2, 3),
        (4, 4),
        (2, 2, 2, 2),
        (3, 5),
        (2, 8),
        (16,),
    ]

    def system(i):
        return generate_random_system(
            FamilyShape(shapes[i % len(shapes)]), 12, 0.5, seed=1000 + i
        )

    with criterion("C5 evaluator agreement and coefficient collapse", 120.0):
        for i in range(200):
            spec = system(i)
            assert spec.shape.product_size <= 16
            a = reliability_simplified(spec, cap_terms=None).reliability
            b = reliability_classical(spec, cap_terms=None).reliability
            assert abs(a - b) <= 1e-9, (i, a, b)

        collapsed = 0
        for i in range(200):
            spec = system(i)
            if spec.shape.product_size > 12:
                continue
            agg_new = aggregate_terms(term_stream(spec, Method.SIMPLIFIED, cap_terms=None))
            agg_old = aggregate_terms(term_stream(spec, Method.CLASSICAL, cap_terms=None))
            assert agg_new == agg_old, i
            collapsed += 1
            if collapsed >= 20:
                break
        assert collapsed >= 20


def test_c6_reference_values_and_inversion_witness(fixtures_dir):
    with criterion("C6 reference system values and bound inversion witness", 60.0):
        t1 = load_system(fixtures_dir / "t1.json")
        assert reliability_simplified(t1).reliability == pytest.approx(
            0.2668, abs=1e-10
        )
        assert reliability_classical(t1).reliability == pytest.approx(
            0.2668, abs=1e-10
        )
        assert bound_summary(t1).bound_relaxed == pytest.approx(0.2260049, abs=1e-7)

        witnesses = nonmonotonicity_search(SearchConfig(), trials=300, seed=1)
        assert len(witnesses) >= 1
        for w in witnesses:
            rel_low = reliability_classical(w.low).reliability
            rel_high = reliability_classical(w.high).reliability
            assert rel_low < rel_high
            assert (
                bound_summary(w.low).bound_relaxed
                > bound_summary(w.high).bound_relaxed
            )


def test_c7_performance_ordering(fixtures_dir):
    with criterion("C7 performance ordering on persisted instances", 120.0):
        big = load_system(fixtures_dir / "bench_3x3.json")
        assert validate_system(big).ok
        assert big.shape.sizes == (3, 3, 3)
        new = reliability_simplified(big, cap_terms=None)
        assert new.wall_time < 1.0
        assert new.term_count == 343
        assert count_terms_classical(big.shape) == 2**27 - 1

        # give the product-space route over 100x the other route's time and
        # require that it still cannot finish
        budget = max(2.0, 200.0 * new.wall_time)
        assert budget > 100.0 * new.wall_time
        with pytest.raises(EvaluationTimeout):
            reliability_classical(big, cap_terms=None, budget_seconds=budget)

        small = load_system(fixtures_dir / "bench_2x2.json")
        assert validate_system(small).ok
        assert small.shape.sizes == (2, 2)
        warm_new = reliability_simplified(small, cap_terms=None)
        warm_old = reliability_classical(small, cap_terms=None)
        assert warm_new.reliability == pytest.approx(warm_old.reliability, abs=1e-12)
        t_new = min(
            reliability_simplified(small, cap_terms=None).wall_time for _ in range(51)
        )
        t_old = min(
            reliability_classical(small, cap_terms=None).wall_time for _ in range(51)
        )
        assert t_new <= t_old, (t_new, t_old)


def test_c8_monte_carlo_calibration(fixtures_dir):
    with criterion("C8 Monte Carlo calibration on the reference system", 120.0):
        t1 = load_system(fixtures_dir / "t1.json")
        exact = 0.2668
        samples = 1_000_000
        sigma = (exact * (1.0 - exact) / samples) ** 0.5
        hits = 0
        for seed in range(10):
            report = reliability_monte_carlo(t1, samples, seed)
            assert report.standard_error == pytest.approx(sigma, rel=0.05)
            if abs(report.reliability - exact) <= 3.0 * sigma:
                hits += 1
        assert hits >= 9, hits
