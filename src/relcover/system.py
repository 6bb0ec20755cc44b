"""Problem instances: components, functions, and redundant implementations.

A system offers n functions.  Function i is realised by t_i alternative
implementations, each a non-empty set of components, and the function works
as long as at least one of its implementations has all components working.
Components fail independently; component c works with probability a_c in
(0, 1).  Implementations may share components freely, within a function and
across functions, which is what makes these systems non series-parallel.

Component ids are dense integers 0..z-1 so component sets can be carried as
bit masks: the probability that a collection of implementations all work is
the product of a_c over the union mask, each shared component counted once.
"""

from __future__ import annotations

import json
import locale
import math
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import GenerationError, InvalidSystemError
from .network import DoorNetwork, integer_field, minimal_paths

# Dense component identifier, 0..z-1.
ComponentId = int

# Systems wider than this are rejected by validation; masks stay cheap and
# a misread file cannot allocate gigabit integers.
MAX_COMPONENTS = 128

# `mask_product` multiplies component ids in chunks of this many.
CHUNK_BITS = 16
CHUNK_MASK = (1 << CHUNK_BITS) - 1

# _BITS[b]: the positions of the set bits of byte b, ascending.  Built by
# doubling: step k appends every entry so far with bit k added.
_BITS: list[tuple[int, ...]] = [()]
for _bit in range(8):
    _BITS += [bits + (_bit,) for bits in _BITS]
del _bit


@dataclass(frozen=True)
class Component:
    """One physical unit with an independent survival probability."""

    id: ComponentId
    reliability: float


@dataclass(frozen=True)
class Implementation:
    """One way to realise a function: a non-empty set of component ids."""

    function_index: int
    impl_index: int
    components: frozenset[ComponentId]
    label: str = ""

    @property
    def mask(self) -> int:
        bits = 0
        for c in self.components:
            bits |= 1 << c
        return bits


@dataclass(frozen=True)
class FamilyShape:
    """Implementation counts per function: sizes = (t_1, ..., t_n)."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("shape needs at least one function")
        if any(t < 1 for t in self.sizes):
            raise ValueError("every function needs at least one implementation")

    @classmethod
    def uniform(cls, n: int, t: int) -> "FamilyShape":
        return cls((t,) * n)

    @property
    def n(self) -> int:
        """Number of functions."""
        return len(self.sizes)

    @property
    def m(self) -> int:
        """Total number of implementations across all functions."""
        return sum(self.sizes)

    @property
    def product_size(self) -> int:
        """|W| = prod t_i, the number of one-per-function selections."""
        # one power per distinct size: a running product of 10^6 threes
        # takes quadratic time in the growing integer
        return math.prod(t**k for t, k in Counter(self.sizes).items())


@dataclass(frozen=True)
class SystemSpec:
    """A complete instance: components plus per-function implementation lists.

    `network` and `claimed` are optional provenance: the door network a spec
    was derived from, and externally claimed reference values
    (claimed_reliability / claimed_lower_bound) carried along for display.
    Construction is permissive.  A spec is checked once, on first use by
    any evaluator or bound: `_record` keeps the `validate_system` report,
    and the masks and reliabilities when the spec is sound enough to build
    them.  The cache is sound because every field the check reads is a
    tuple of frozen objects whose component sets are frozensets,
    `dataclasses.replace` makes a new object that is checked afresh, and
    `==`, `repr` and `system_to_dict` read only the declared fields.  A
    spec built by hand from lists must not have them changed after first
    use.
    """

    name: str
    components: tuple[Component, ...]
    functions: tuple[tuple[Implementation, ...], ...]
    network: DoorNetwork | None = None
    claimed: dict[str, float] = field(default_factory=dict)

    @property
    def shape(self) -> FamilyShape:
        return FamilyShape(tuple(len(f) for f in self.functions))

    @property
    def component_count(self) -> int:
        return len(self.components)

    def implementations(self) -> Iterator[Implementation]:
        for function in self.functions:
            yield from function

    @cached_property
    def _record(self) -> tuple[ValidationReport, tuple, tuple | None, tuple | None]:
        """(report, violations besides duplicate sets, masks, reliabilities).

        Masks and reliabilities are None past such a violation, which could
        make building them fail or allocate a huge mask.
        """
        report = validate_system(self)
        hard = tuple(v for v in report.violations if v.kind != "duplicate-implementation")
        if hard:
            return report, hard, None, None
        masks = tuple(tuple([impl.mask for impl in f]) for f in self.functions)
        return report, hard, masks, tuple(reliability_array(self))


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_system(spec: SystemSpec) -> ValidationReport:
    """Check every structural invariant; violations are data, not exceptions.

    Checks: component ids dense and unique, at most MAX_COMPONENTS
    components, reliabilities inside the open interval (0, 1), at least one
    function, every function non-empty, every implementation non-empty and
    referencing known components, stored indices matching list positions,
    and within-function implementation component sets pairwise distinct.
    """
    bad: list[Violation] = []

    ids = [c.id for c in spec.components]
    dense = list(range(len(ids)))
    if ids != dense and sorted(ids) != dense:
        bad.append(
            Violation(
                "component-ids",
                f"component ids must be exactly 0..{len(ids) - 1}, but are {sorted(ids)}",
            )
        )
    if len(ids) > MAX_COMPONENTS:
        bad.append(
            Violation(
                "too-many-components",
                f"{len(ids)} components exceeds the mask width cap {MAX_COMPONENTS}",
            )
        )
    for c in spec.components:
        if not (0.0 < c.reliability < 1.0):
            bad.append(
                Violation(
                    "reliability-range",
                    f"component {c.id} reliability {c.reliability!r} outside (0, 1)",
                )
            )

    known = set(ids)
    if not spec.functions:
        bad.append(Violation("no-functions", "system defines no functions"))
    for i, function in enumerate(spec.functions):
        if not function:
            bad.append(Violation("empty-function", f"function {i} has no implementations"))
        seen_sets: dict[frozenset[ComponentId], int] = {}
        for j, impl in enumerate(function):
            if (impl.function_index, impl.impl_index) != (i, j):
                bad.append(
                    Violation(
                        "index-mismatch",
                        f"implementation at position ({i}, {j}) carries indices "
                        f"({impl.function_index}, {impl.impl_index})",
                    )
                )
            if not impl.components:
                bad.append(
                    Violation(
                        "empty-implementation",
                        f"implementation ({i}, {j}) has an empty component set",
                    )
                )
            if not impl.components <= known:
                bad.append(
                    Violation(
                        "unknown-component",
                        f"implementation ({i}, {j}) references missing components "
                        f"{sorted(impl.components - known)}",
                    )
                )
            if impl.components in seen_sets:
                bad.append(
                    Violation(
                        "duplicate-implementation",
                        f"function {i}: implementations {seen_sets[impl.components]} "
                        f"and {j} have identical component sets",
                    )
                )
            else:
                seen_sets[impl.components] = j

    return ValidationReport(tuple(bad))


def _require_member(spec: SystemSpec, impl: Implementation) -> None:
    fi, ii = impl.function_index, impl.impl_index
    if not (0 <= fi < len(spec.functions) and 0 <= ii < len(spec.functions[fi])):
        raise ValueError(f"implementation ({fi}, {ii}) is not part of system {spec.name!r}")
    if spec.functions[fi][ii] != impl:
        raise ValueError(f"implementation ({fi}, {ii}) does not match the system's entry")


def reliability_array(spec: SystemSpec) -> list[float]:
    """Reliabilities indexed by component id; the spec must have dense ids."""
    reliabilities = [0.0] * spec.component_count
    for c in spec.components:
        reliabilities[c.id] = c.reliability
    return reliabilities


def prepared(
    spec: SystemSpec, duplicates_ok: bool = False
) -> tuple[tuple[tuple[int, ...], ...], tuple[float, ...]]:
    """(masks per function, reliabilities by id) of a valid spec, from its record.

    Raises InvalidSystemError unless the spec passes `validate_system`;
    `duplicates_ok` lets identical component sets within a function pass,
    as the bounds count them as distinct events.
    """
    report, hard, masks, reliabilities = spec._record
    refused = hard if duplicates_ok else report.violations
    if refused:
        raise InvalidSystemError(refused)
    return masks, reliabilities


def mask_product(mask: int, reliabilities: Sequence[float]) -> float:
    """prod of a_c over the components in mask, one chunk of ids at a time.

    Ids fall into chunks of CHUNK_BITS (0..15, 16..31, ...).  Each chunk's
    product is taken from 1.0 in ascending id order, and the chunk products
    are multiplied in ascending chunk order; for a mask inside ids 0..15
    that is the plain ascending product.  A chunk is walked as two bytes,
    low byte first, each through the set-bit positions `_BITS` holds, which
    is the same ascending order, so the bits do not depend on the walk.
    This is the one product primitive behind every route, so equal masks
    always give bit-identical products, and a product assembled from
    memoised chunk products in the same order is bit-identical too.
    `reliabilities` is indexed by component id, as `reliability_array(spec)`.
    """
    p = 1.0
    base = 0
    while mask:
        chunk = mask & CHUNK_MASK
        if chunk:
            q = 1.0
            for j in _BITS[chunk & 255]:
                q *= reliabilities[base + j]
            high = base + 8
            for j in _BITS[chunk >> 8]:
                q *= reliabilities[high + j]
            p *= q
            mask >>= CHUNK_BITS
            base += CHUNK_BITS
        else:  # empty chunks multiply by 1.0, no bit: skip to the lowest id's chunk
            skip = (mask & -mask).bit_length() - 1
            skip -= skip % CHUNK_BITS
            mask >>= skip
            base += skip
    return p


def implementation_probability(spec: SystemSpec, impl: Implementation) -> float:
    """P(implementation works) = prod of a_c over its component set.

    Raises InvalidSystemError (a ValueError) unless the spec is valid.
    """
    return intersection_probability(spec, [impl])


def intersection_probability(spec: SystemSpec, impls: Sequence[Implementation]) -> float:
    """P(all given implementations work simultaneously).

    Shared components are counted once: the probability is the product of
    a_c over the union of the component sets, which is what makes the
    event algebra of these systems collapse so aggressively.  Raises
    InvalidSystemError (a ValueError) unless the spec passes
    `validate_system`, which is checked before any mask is read.
    """
    if not impls:
        raise ValueError("intersection over an empty implementation list")
    masks, reliabilities = prepared(spec)
    union = 0
    for impl in impls:
        _require_member(spec, impl)
        union |= masks[impl.function_index][impl.impl_index]
    return mask_product(union, reliabilities)


def door_functions(net: DoorNetwork) -> tuple[tuple[Implementation, ...], ...]:
    """One function per terminal pair, its implementations the minimal paths.

    Implementation j of function i is labelled "P{i+1}.{j+1}".  A pair whose
    sink is unreachable gives an empty function, which validation rejects.
    """
    return tuple(
        tuple(
            Implementation(i, j, s, label=f"P{i + 1}.{j + 1}")
            for j, s in enumerate(minimal_paths(net, i))
        )
        for i in range(len(net.terminals))
    )


def generate_random_system(
    shape: FamilyShape,
    components: int,
    sharing: float,
    seed: int,
    max_impl_size: int = 3,
    name: str | None = None,
) -> SystemSpec:
    """Draw a random valid system, deterministically for a given seed.

    `sharing` in [0, 1] is the probability that a component slot reuses an
    already-used component instead of taking a fresh one.  With sharing = 0
    and enough components, implementation sets come out pairwise disjoint.
    Reliabilities are uniform on [0.05, 0.95].  Raises GenerationError when
    within-function sets cannot be made pairwise distinct, and ValueError for
    a negative seed, which `random.Random` would silently read as |seed|, or
    for more components than MAX_COMPONENTS, which no valid system has.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if components < shape.n:
        raise ValueError(f"need at least {shape.n} components for {shape.n} functions")
    if components > MAX_COMPONENTS:
        raise ValueError(
            f"{components} components exceeds the mask width cap {MAX_COMPONENTS}"
        )
    if not (0.0 <= sharing <= 1.0):
        raise ValueError("sharing must lie in [0, 1]")
    size_cap = min(max_impl_size, components)

    # Feasibility: function i needs t_i distinct non-empty subsets of size <= cap.
    available = sum(math.comb(components, s) for s in range(1, size_cap + 1))
    if max(shape.sizes) > available:
        raise GenerationError(
            f"cannot build {max(shape.sizes)} distinct implementation sets from "
            f"{components} components with set size <= {size_cap}"
        )

    rng = random.Random(seed)
    comps = tuple(
        Component(i, rng.uniform(0.05, 0.95)) for i in range(components)
    )

    pool = list(range(components))  # never-used ids, ascending
    used: list[ComponentId] = []  # ids in first-use order

    def draw_set() -> frozenset[ComponentId]:
        size = rng.randint(1, size_cap)
        chosen: set[ComponentId] = set()
        while len(chosen) < size:
            reuse = bool(used) and (rng.random() < sharing or not pool)
            if reuse:
                candidates = [c for c in used if c not in chosen]
                if not candidates:
                    reuse = False
            if reuse:
                pick = candidates[rng.randrange(len(candidates))]
            else:  # an empty pool leaves a candidate, as size <= components
                pick = pool.pop(0)
                used.append(pick)
            chosen.add(pick)
        return frozenset(chosen)

    functions: list[tuple[Implementation, ...]] = []
    for i, t in enumerate(shape.sizes):
        sets: list[frozenset[ComponentId]] = []
        for j in range(t):
            for _attempt in range(64):
                cand = draw_set()
                if cand not in sets:
                    sets.append(cand)
                    break
            else:
                raise GenerationError(
                    f"function {i}: could not draw {t} distinct sets after retries"
                )
        functions.append(
            tuple(
                Implementation(i, j, s, label=f"F{i + 1}.{j + 1}")
                for j, s in enumerate(sets)
            )
        )

    spec = SystemSpec(
        name=name or f"random-{'x'.join(map(str, shape.sizes))}-seed{seed}",
        components=comps,
        functions=tuple(functions),
    )
    report = spec._record[0]
    if not report.ok:  # pragma: no cover - generator contract
        raise GenerationError("generator produced an invalid system: " + str(report.violations))
    return spec


# ---------------------------------------------------------------------------
# File format.
#
# {
#   "name": str,
#   "components": [{"id": int, "reliability": float}, ...],
#   "functions": [[{"label": str, "components": [int, ...]}, ...], ...],
#   "network": {...}                  optional, see network.py
#   "claimed_reliability": float      optional
#   "claimed_lower_bound": float      optional
# }
# ---------------------------------------------------------------------------

_CLAIM_KEYS = ("claimed_reliability", "claimed_lower_bound")


def system_to_dict(spec: SystemSpec) -> dict:
    doc: dict = {
        "name": spec.name,
        "components": [
            {"id": c.id, "reliability": c.reliability} for c in spec.components
        ],
        "functions": [
            [
                {"label": impl.label, "components": sorted(impl.components)}
                for impl in function
            ]
            for function in spec.functions
        ],
    }
    if spec.network is not None:
        doc["network"] = spec.network.to_dict()
    for key in _CLAIM_KEYS:
        if key in spec.claimed:
            doc[key] = spec.claimed[key]
    return doc


# One pass over a list's types lets the common case skip the per-entry
# checks, which then run only to find and name a fault.
_FLOAT = frozenset([float])
_INT = frozenset([int])


def _number(value: object, what: str) -> float:
    """A JSON number as a float; float() would also read a string or a bool."""
    if isinstance(value, (str, bool)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _numbers(values: list, what: str) -> list:
    """`values` as floats, each checked by `_number` unless all are floats."""
    if _FLOAT.issuperset(map(type, values)):
        return values
    return [_number(v, what) for v in values]


def _integers(values: list, what: str) -> list:
    """`values` as ids, each checked by `integer_field` unless all are ints."""
    if _INT.issuperset(map(type, values)):
        return values
    return [integer_field(v, what) for v in values]


def system_from_dict(doc: dict) -> SystemSpec:
    """The spec a JSON document describes; ValueError names a malformed field.

    Ids must be integers or integral floats, never bools; reliabilities and
    claims must be numbers, never strings or bools.  A document with several
    faults reports one of them, not always the first in document order:
    every component id is checked before any reliability.
    """
    try:
        entries = doc["components"]
        ids = _integers([c["id"] for c in entries], "component id")
        reliabilities = _numbers([c["reliability"] for c in entries], "reliability")
        components = tuple([Component(c, a) for c, a in zip(ids, reliabilities)])
        functions = tuple(
            tuple(
                [
                    Implementation(
                        i,
                        j,
                        frozenset(_integers(entry["components"], "implementation component")),
                        str(entry.get("label", "")),
                    )
                    for j, entry in enumerate(function)
                ]
            )
            for i, function in enumerate(doc["functions"])
        )
        network = DoorNetwork.from_dict(doc["network"]) if "network" in doc else None
        claimed = {key: _number(doc[key], key) for key in _CLAIM_KEYS if key in doc}
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed system document: missing or bad field ({exc})") from exc
    return SystemSpec(
        name=str(doc.get("name", "")),
        components=components,
        functions=functions,
        network=network,
        claimed=claimed,
    )


def save_system(spec: SystemSpec, path: str | Path) -> None:
    """Write a spec as JSON; output bytes are a pure function of the spec."""
    Path(path).write_text(dumps_system(spec))


def dumps_system(spec: SystemSpec) -> str:
    return json.dumps(system_to_dict(spec), indent=2) + "\n"


def load_system(path: str | Path) -> SystemSpec:
    """The spec in a JSON file; ValueError for a malformed one.

    One unbuffered binary read, decoded as `open(path)` would decode it
    (locale encoding, universal newlines), costs less than a text file
    object and gives the same text, so the same spec or message.  Bytes
    that do not decode give a ValueError that names the file.
    """
    with open(os.fspath(path), "rb", buffering=0) as file:
        data = file.read()
    encoding = locale.getpreferredencoding(False)
    try:
        text = data.decode(encoding)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not readable as {encoding} text ({exc})") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply to load") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return system_from_dict(doc)
