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
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import GenerationError
from .network import DoorNetwork

# Dense component identifier, 0..z-1.
ComponentId = int

# Systems wider than this are rejected by validation; masks stay cheap and
# a misread file cannot allocate gigabit integers.  Overridable per call.
DEFAULT_MAX_COMPONENTS = 128


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
        out = 1
        for t in self.sizes:
            out *= t
        return out


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

    def reliability_by_id(self) -> dict[ComponentId, float]:
        return {c.id: c.reliability for c in self.components}

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


def validate_system(
    spec: SystemSpec, max_components: int = DEFAULT_MAX_COMPONENTS
) -> ValidationReport:
    """Check every structural invariant; violations are data, not exceptions.

    Checks: component ids dense and unique, component count within the mask
    width, reliabilities inside the open interval (0, 1), at least one
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
                f"component ids must be exactly 0..{len(ids) - 1}, got {sorted(ids)}",
            )
        )
    if len(ids) > max_components:
        bad.append(
            Violation(
                "too-many-components",
                f"{len(ids)} components exceeds the mask width cap {max_components}",
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


def mask_product(
    mask: int, reliabilities: Sequence[float] | dict[ComponentId, float]
) -> float:
    """prod of a_c over the components in mask, multiplied in ascending id order.

    The one product primitive behind every route, so equal masks always give
    bit-identical products.  `reliabilities` is anything indexed by component
    id: a dense list or `SystemSpec.reliability_by_id()`.
    """
    p = 1.0
    while mask:
        low = mask & -mask
        p *= reliabilities[low.bit_length() - 1]
        mask ^= low
    return p


def implementation_probability(spec: SystemSpec, impl: Implementation) -> float:
    """P(implementation works) = prod of a_c over its component set."""
    _require_member(spec, impl)
    return mask_product(impl.mask, spec.reliability_by_id())


def intersection_probability(spec: SystemSpec, impls: Sequence[Implementation]) -> float:
    """P(all given implementations work simultaneously).

    Shared components are counted once: the probability is the product of
    a_c over the union of the component sets, which is what makes the
    event algebra of these systems collapse so aggressively.
    """
    if not impls:
        raise ValueError("intersection over an empty implementation list")
    union = 0
    for impl in impls:
        _require_member(spec, impl)
        union |= impl.mask
    return mask_product(union, spec.reliability_by_id())


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
    within-function sets cannot be made pairwise distinct.
    """
    if components < shape.n:
        raise ValueError(f"need at least {shape.n} components for {shape.n} functions")
    if not (0.0 <= sharing <= 1.0):
        raise ValueError("sharing must lie in [0, 1]")
    size_cap = min(max_impl_size, components)

    # Feasibility: function i needs t_i distinct non-empty subsets of size <= cap.
    import math

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
            elif pool:
                pick = pool.pop(0)
                used.append(pick)
            else:
                break  # every component already inside `chosen`
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
        components = tuple(
            Component(int(c["id"]), float(c["reliability"])) for c in doc["components"]
        )
        functions = tuple(
            tuple(
                Implementation(
                    i,
                    j,
                    frozenset(int(c) for c in entry["components"]),
                    label=str(entry.get("label", "")),
                )
                for j, entry in enumerate(function)
            )
            for i, function in enumerate(doc["functions"])
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed system document: missing or bad field ({exc})") from exc
    network = DoorNetwork.from_dict(doc["network"]) if "network" in doc else None
    claimed = {key: float(doc[key]) for key in _CLAIM_KEYS if key in doc}
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
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return system_from_dict(doc)
