"""The workloads: how each draws its systems and what one evaluation calls.

An evaluation goes from an instance file to checked results.  It returns
(value, reference name) pairs that the caller compares with the instance's
exact references, and raises when an output is wrong in a way a tolerance
cannot express (a bound above the exact value, different minimal path sets,
a changed nominal term count).
"""

from __future__ import annotations

import json
import math
import random
import shutil
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import relcover as rc

from instances import (
    Draw,
    System,
    covers_connected,
    distinct_unions,
    draw_system,
    from_document,
    slots,
    write_system,
)
from oracle import exact_pairwise_sums, exact_reliability, minimal_path_sets
from tracing import NoTracer

# Absolute tolerance of acceptance criterion C5; not to be loosened.
TOLERANCE = 1e-9
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DOOR_FIXTURES = ("dms_one_door.json", "dms_two_door.json")

Checks = list[tuple[float, str]]


class WrongOutput(Exception):
    pass


@dataclass
class Instance:
    id: int
    path: Path
    system: System
    refs: dict[str, tuple[Fraction, float]]  # exact reference, correctly rounded
    terms: int  # nominal covering-selection terms, prod (2^t_i - 1)
    paths: list[set[frozenset[int]]] | None  # own minimal path sets (door systems)


@dataclass(frozen=True)
class Workload:
    name: str
    draw: Callable[[random.Random, str], Draw]
    probes: int | None  # instances the traced run probes after its loop; None: all


def simplified_terms(sizes) -> int:
    return math.prod((1 << t) - 1 for t in sizes)


# --- drawing -----------------------------------------------------------------
#
# Instances of one workload have a stated size, not only a stated shape: the
# per-evaluation cost of a 4^5 system swings by 2x with how many products
# are distinct (shared) or how many component slots are filled (disjoint), and
# a run fits only a handful of evaluations.  Conditioning on that size keeps
# a run's median a property of the program rather than of the draw.

SHAPE_4_5 = (4, 4, 4, 4, 4)
SHARED_BAND = (0.65, 0.85)  # distinct products / nominal terms
DISJOINT_SLOTS = 40
DESIGN_SHAPES = ((3,), (4,), (5,), (2, 2), (2, 3), (3, 3), (3, 3, 3), (2, 2, 2, 2))
DESIGN_PER_SHAPE = 250


def draw_shared(rng: random.Random, tag: str) -> Draw:
    terms = simplified_terms(SHAPE_4_5)
    systems: list[System] = []
    redraws = off_band = 0
    while len(systems) < 6:
        system = draw_system(rng, SHAPE_4_5, 40, 0.3, f"{tag}-{len(systems)}")
        if not covers_connected(system):
            redraws += 1
        elif not SHARED_BAND[0] <= distinct_unions(system) / terms <= SHARED_BAND[1]:
            off_band += 1
        else:
            systems.append(system)
    return Draw(systems, redraws, {"outside_distinct_band": off_band})


def draw_disjoint(rng: random.Random, tag: str) -> Draw:
    systems: list[System] = []
    off_slots = 0
    while len(systems) < 6:
        system = draw_system(rng, SHAPE_4_5, 60, 0.0, f"{tag}-{len(systems)}")
        if slots(system) == DISJOINT_SLOTS:
            systems.append(system)
        else:
            off_slots += 1
    return Draw(systems, 0, {"other_slot_count": off_slots})


def door_fixtures() -> list[System]:
    return [from_document(json.loads((FIXTURES / name).read_text())) for name in DOOR_FIXTURES]


def draw_design(rng: random.Random, tag: str) -> Draw:
    systems = [
        draw_system(rng, sizes, rng.randint(6, 20), 0.5, f"{tag}-{i}")
        for i in range(DESIGN_PER_SHAPE)
        for sizes in DESIGN_SHAPES
    ]
    return Draw(systems + door_fixtures())


def make_instance(index: int, path: Path, system: System) -> Instance:
    masks = system.masks()
    exact = exact_reliability(masks, list(system.reliabilities))
    refs = {"R": (exact, float(exact))}
    if len(masks) == 1:
        s1, s2 = exact_pairwise_sums(masks[0], list(system.reliabilities))
        refs.update(S1=(s1, float(s1)), S2=(s2, float(s2)))
    paths = None
    if system.network is not None:
        paths = [set(minimal_path_sets(system.network, i)) for i in range(len(masks))]
    return Instance(index, path, system, refs, simplified_terms(system.sizes), paths)


def prepare(systems: list[System], directory: Path, first_id: int = 0) -> list[Instance]:
    """Write the systems as instance files and attach their exact references."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    instances = []
    for i, system in enumerate(systems):
        path = directory / f"{i:04d}.json"
        write_system(system, path)
        instances.append(make_instance(first_id + i, path, system))
    return instances


def describe(draw: Draw) -> dict:
    shapes = Counter(s.sizes for s in draw.systems)
    return {
        "shapes": {"x".join(map(str, k)): n for k, n in shapes.items()},
        "terms_nominal": {"x".join(map(str, k)): simplified_terms(k) for k in shapes},
        "connected_redraws": draw.redraws,
        **draw.notes,
    }


# --- evaluating --------------------------------------------------------------


def rederive(spec, inst: Instance, tracer: NoTracer):
    derived = [
        tracer.call("network.minimal_paths", rc.minimal_paths, spec.network, i)
        for i in range(len(inst.paths))
    ]
    if [set(sets) for sets in derived] != inst.paths:
        raise WrongOutput(f"{inst.path.name}: minimal path sets differ")
    tracer.note(inst.id, "minimal_sets", sum(map(len, derived)))
    functions = tuple(
        tuple(rc.Implementation(i, j, s, label=f"P{i + 1}.{j + 1}") for j, s in enumerate(sets))
        for i, sets in enumerate(derived)
    )
    return rc.SystemSpec(spec.name, spec.components, functions, network=spec.network)


def evaluate_system(inst: Instance, tracer: NoTracer) -> Checks:
    """load_system, minimal_paths for door systems, reliability_simplified,
    and for single-function systems bound_summary + exact_union_probability."""
    spec = tracer.call("system.load_system", rc.load_system, inst.path)
    if inst.paths is not None:
        spec = rederive(spec, inst, tracer)
    report = tracer.call("evaluate.reliability_simplified", rc.reliability_simplified, spec)
    if report.term_count != inst.terms:
        raise WrongOutput(f"{inst.path.name}: {report.term_count} nominal terms, not {inst.terms}")
    tracer.note(inst.id, "terms_nominal", report.term_count)
    tracer.note(inst.id, "distinct_products", report.distinct_product_count)
    checks = [(report.reliability, "R")]
    if len(spec.functions) == 1:
        bound = tracer.call("bounds.bound_summary", rc.bound_summary, spec)
        union = tracer.call("bounds.exact_union_probability", rc.exact_union_probability, spec)
        if max(bound.bound_full, bound.bound_relaxed) > inst.refs["R"][1] + TOLERANCE:
            raise WrongOutput(f"{inst.path.name}: lower bound above the exact reliability")
        checks += [(bound.s1, "S1"), (bound.s2, "S2"), (union, "R")]
    return checks


def _drain(spec) -> list:
    return list(rc.term_stream(spec, rc.Method.SIMPLIFIED, cap_terms=None))


def _product_table(reliabilities) -> Callable[[int], float]:
    """P(mask) from one 256-entry table per 8 components."""
    padded = list(reliabilities) + [1.0] * (-len(reliabilities) % 8)
    tables = []
    for base in range(0, len(padded), 8):
        table = [1.0] * 256
        for b in range(1, 256):
            table[b] = table[b & (b - 1)] * padded[base + (b & -b).bit_length() - 1]
        tables.append(table)

    def product(mask: int) -> float:
        p = 1.0
        for table in tables:
            p *= table[mask & 255]
            mask >>= 8
        return p

    return product


def probe(inst: Instance, tracer: NoTracer) -> Checks:
    """Calls that only the traced run makes: validation on its own, and a
    full drain of term_stream into aggregate_terms with the coefficient
    map's cancellation."""
    spec = tracer.call("system.load_system", rc.load_system, inst.path)
    tracer.call("system.validate_system", rc.validate_system, spec)
    events = tracer.call("evaluate.term_stream", _drain, spec)
    coefficients = tracer.call("evaluate.aggregate_terms", rc.aggregate_terms, events)
    del events
    product = _product_table(inst.system.reliabilities)
    terms = [c * product(mask) for mask, c in coefficients.items()]
    # The sum uses the benchmark's own products, so it checks the coefficient
    # map without counting toward the evaluators' largest error.
    if abs(math.fsum(terms) - inst.refs["R"][1]) > TOLERANCE:
        raise WrongOutput(f"{inst.path.name}: aggregate_terms does not sum to R")
    tracer.note(inst.id, "nonzero_coefficients", len(coefficients))
    tracer.note(inst.id, "cancellation_ratio", math.fsum(map(abs, terms)) / inst.refs["R"][1])
    return []


def reference_probe(inst: Instance, tracer: NoTracer) -> Checks:
    """Every layer on a committed door fixture, so that each traced run
    measures every layer, including those its workload does not call."""
    checks = evaluate_system(inst, tracer)
    spec = rc.load_system(inst.path)
    report = tracer.call("evaluate.reliability_classical", rc.reliability_classical, spec)
    return checks + [(report.reliability, "R")]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("eval-shared", draw_shared, probes=1),
        Workload("eval-disjoint", draw_disjoint, probes=1),
        Workload("design-loop", draw_design, probes=None),
    )
}
