"""Golden values: every exact result pinned to the bits of its float.

A change to any engine layer (fold, merge, products, summation) that keeps
these hex strings keeps the results bit for bit.  The values were recorded
from the engine that merged every head entry of a group's last fold step on
its own, before that merge was shared per inner pattern.
"""

import dataclasses
import random

import pytest

from relcover import (
    Component,
    FamilyShape,
    InvalidSystemError,
    SystemSpec,
    exact_union_probability,
    generate_random_system,
    load_system,
    pairwise_sums,
    reliability_classical,
    reliability_simplified,
)
from relcover import evaluate
from relcover.evaluate import _fold, _groups, _own_map
from relcover.system import CHUNK_BITS, CHUNK_MASK

# fixture: (simplified value, distinct unions, classical value or None past |W| = 20)
FIXTURES = {
    "bench_2x2": ("0x1.f67697a885cffp-6", 7, "0x1.f67697a885cffp-6"),
    "bench_3x3": ("0x1.2b6c42a40cb3ep-4", 223, None),
    "dms_one_door": ("0x1.e0f2cf9cb420fp-1", 6, "0x1.e0f2cf9cb420fp-1"),
    "dms_two_door": ("0x1.b1e07887d91e4p-1", 14, "0x1.b1e07887d91e4p-1"),
    "t1": ("0x1.113404ea4a8c1p-2", 6, "0x1.113404ea4a8c1p-2"),
    "t3": ("0x1.410624dd2f1aap-2", 6, "0x1.410624dd2f1aap-2"),
    "witness_high": ("0x1.1cd916060d1b3p-2", 3, "0x1.1cd916060d1b3p-2"),
    "witness_low": ("0x1.1520a192f0390p-2", 7, "0x1.1520a192f0390p-2"),
}

# single-function fixture: (exact union probability, S1, S2)
UNIONS = {
    "dms_one_door": (
        "0x1.e0f2cf9cb420fp-1",
        "0x1.3f0321c87cb10p+1",
        "0x1.23b327928345fp+1",
    ),
    "t1": ("0x1.113404ea4a8c1p-2", "0x1.5604189374bc6p-2", "0x1.46dc5d6388659p-4"),
    "t2": ("0x1.0268bf063aacap-2", "0x1.6d0678c0053e2p-2", "0x1.eb84b35887809p-4"),
    "t3": ("0x1.410624dd2f1aap-2", "0x1.bd70a3d70a3d7p-2", "0x1.1f8a0902de00dp-3"),
    "witness_high": (
        "0x1.1cd916060d1b3p-2",
        "0x1.064e322d6c2ebp-1",
        "0x1.67a4f57f30e34p-2",
    ),
    "witness_low": (
        "0x1.1520a192f0390p-2",
        "0x1.3ac83656d42ccp-2",
        "0x1.3a0b06a7f7516p-5",
    ),
}


def relabelled(spec, seed):
    """The same system with its component ids permuted by a seeded shuffle."""
    z = spec.component_count
    order = random.Random(seed).sample(range(z), z)
    components = sorted(
        (Component(order[c.id], c.reliability) for c in spec.components),
        key=lambda c: c.id,
    )
    functions = tuple(
        tuple(
            dataclasses.replace(impl, components=frozenset(order[c] for c in impl.components))
            for impl in function
        )
        for function in spec.functions
    )
    return SystemSpec(spec.name, tuple(components), functions)


GENERATED = [
    # the connected 4^4 system of the memory test, ids 0..23
    (
        generate_random_system(FamilyShape((4, 4, 4, 4)), 24, 0.3, seed=1),
        "0x1.53fa5d6e1d28ap-3",
        11_957,
    ),
    # a connected 4^4 system on 29 ids spread over 0..125, all eight chunks
    (
        relabelled(generate_random_system(FamilyShape((4, 4, 4, 4)), 128, 0.3, seed=4), 4),
        "0x1.2fd561d45d84ap-3",
        25_425,
    ),
]


# 4^5 systems whose last merge is split: (spec, value, distinct unions,
# chunks the last function's support meets, whether some part has more than
# one head entry); recorded from the engine that summed a split merge part
# by part
SPLIT = [
    (
        generate_random_system(FamilyShape((4,) * 5), 40, 0.3, seed=3),
        "0x1.93afda83d7da0p-3",
        374_595,
        2,
        False,
    ),
    (
        generate_random_system(FamilyShape((4,) * 5), 32, 0.3, seed=10),
        "0x1.74dac53d1c233p-2",
        143_615,
        1,
        True,
    ),
]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_values_are_pinned(fixtures_dir, name):
    simplified, distinct, classical = FIXTURES[name]
    spec = load_system(fixtures_dir / f"{name}.json")
    report = reliability_simplified(spec)
    assert (report.reliability.hex(), report.distinct_product_count) == (
        simplified,
        distinct,
    )
    if classical is not None:
        assert reliability_classical(spec).reliability.hex() == classical


def test_every_fixture_is_pinned(fixtures_dir):
    names = {path.stem for path in fixtures_dir.glob("*.json")}
    assert names == set(FIXTURES) | {"t2"}
    with pytest.raises(InvalidSystemError):
        reliability_simplified(load_system(fixtures_dir / "t2.json"))


@pytest.mark.parametrize("name", sorted(UNIONS))
def test_union_values_are_pinned(fixtures_dir, name):
    spec = load_system(fixtures_dir / f"{name}.json")
    s1, s2 = pairwise_sums(spec)
    assert (exact_union_probability(spec).hex(), s1.hex(), s2.hex()) == UNIONS[name]


@pytest.mark.parametrize("spec, value, distinct", GENERATED, ids=["ids-0-23", "ids-past-48"])
def test_generated_values_are_pinned(spec, value, distinct):
    functions = [[impl.mask for impl in f] for f in spec.functions]
    assert len(_groups(functions)) == 1
    # the last merge is large enough to be split into parts
    assert len(_fold(functions[:-1])) * len(_own_map(functions[-1])) > evaluate._CHECK_EVERY
    report = reliability_simplified(spec)
    assert (report.reliability.hex(), report.distinct_product_count) == (value, distinct)


@pytest.mark.parametrize(
    "spec, value, distinct, chunks, multi", SPLIT, ids=["two-chunks", "multi-entry-parts"]
)
def test_split_values_are_pinned(spec, value, distinct, chunks, multi):
    functions = [[impl.mask for impl in f] for f in spec.functions]
    assert len(_groups(functions)) == 1
    head = _fold(functions[:-1])
    assert len(head) * len(_own_map(functions[-1])) > evaluate._CHECK_EVERY
    inside = 0
    for m in functions[-1]:
        inside |= m
    met = [shift for shift in range(0, 128, CHUNK_BITS) if inside >> shift & CHUNK_MASK]
    assert len(met) == chunks
    outers = [a & ~inside for a in head]
    assert (len(set(outers)) < len(outers)) == multi
    report = reliability_simplified(spec)
    assert (report.reliability.hex(), report.distinct_product_count) == (value, distinct)


def test_large_own_map_values_are_pinned():
    # one function of 17 implementations on 60 ids spread over all four
    # chunks, so its own map has more entries than a chunk has values
    spec = relabelled(generate_random_system(FamilyShape((17,)), 60, 0.3, seed=1), 1)
    own = _own_map([impl.mask for impl in spec.functions[0]])
    assert len(own) > 1 << CHUNK_BITS
    report = reliability_simplified(spec)
    assert (report.reliability.hex(), report.distinct_product_count) == (
        "0x1.fdd53ad19c45bp-1",
        93_183,
    )
    assert exact_union_probability(spec).hex() == "0x1.fdd53ad19c45bp-1"
