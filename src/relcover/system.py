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
import math
import random
from collections import Counter
from dataclasses import dataclass, field
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
    Construction is permissive; `validate_system` is the gate that evaluators
    rely on.
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
    if sorted(ids) != list(range(len(ids))):
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
            unknown = impl.components - known
            if unknown:
                bad.append(
                    Violation(
                        "unknown-component",
                        f"implementation ({i}, {j}) references missing components "
                        f"{sorted(unknown)}",
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


def mask_product(mask: int, reliabilities: Sequence[float]) -> float:
    """prod of a_c over the components in mask, one chunk of ids at a time.

    Ids fall into chunks of CHUNK_BITS (0..15, 16..31, ...).  Each chunk's
    product is taken from 1.0 in ascending id order, and the chunk products
    are multiplied in ascending chunk order; for a mask inside ids 0..15
    that is the plain ascending product.  This is the one product primitive
    behind every route, so equal masks always give bit-identical products,
    and a product assembled from memoised chunk products in the same order
    is bit-identical too.  `reliabilities` is the dense list
    `reliability_array(spec)`.
    """
    p = 1.0
    base = 0
    while mask:
        chunk = mask & CHUNK_MASK
        q = 1.0
        while chunk:
            low = chunk & -chunk
            q *= reliabilities[base + low.bit_length() - 1]
            chunk ^= low
        p *= q
        mask >>= CHUNK_BITS
        base += CHUNK_BITS
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
    `validate_system`, which is checked before any mask is built.
    """
    if not impls:
        raise ValueError("intersection over an empty implementation list")
    report = validate_system(spec)
    if not report.ok:
        raise InvalidSystemError(report.violations)
    union = 0
    for impl in impls:
        _require_member(spec, impl)
        union |= impl.mask
    return mask_product(union, reliability_array(spec))


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
    report = validate_system(spec)
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


def system_from_dict(doc: dict) -> SystemSpec:
    try:
        components = []
        for c in doc["components"]:
            # float() would also read a JSON string or bool; only numbers pass
            if isinstance(reliability := c["reliability"], (str, bool)):
                raise ValueError(f"reliability must be a number, got {reliability!r}")
            components.append(
                Component(integer_field(c["id"], "component id"), float(reliability))
            )
        functions = tuple(
            tuple(
                Implementation(
                    i,
                    j,
                    frozenset(
                        integer_field(c, "implementation component")
                        for c in entry["components"]
                    ),
                    label=str(entry.get("label", "")),
                )
                for j, entry in enumerate(function)
            )
            for i, function in enumerate(doc["functions"])
        )
        network = DoorNetwork.from_dict(doc["network"]) if "network" in doc else None
        claimed = {}
        for key in _CLAIM_KEYS:
            if key in doc:
                if isinstance(value := doc[key], (str, bool)):
                    raise ValueError(f"{key} must be a number, got {value!r}")
                claimed[key] = float(value)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed system document: missing or bad field ({exc})") from exc
    return SystemSpec(
        name=str(doc.get("name", "")),
        components=tuple(components),
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
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply to load") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return system_from_dict(doc)
