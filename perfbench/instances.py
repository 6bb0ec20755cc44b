"""Seeded benchmark instances, drawn and written by the benchmark's own code.

The generator follows the distribution of `relcover.generate_random_system`
(reliabilities uniform on [0.05, 0.95], implementation sizes uniform on
1..3, a slot reuses an already used component with probability `sharing`)
but lives here, so that a change to the program cannot change what the
benchmark feeds it.  Files use relcover's documented JSON system format and
are a pure function of the workload seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class System:
    """A system as the benchmark sees it: per-component reliabilities and,
    per function, the component sets of its implementations."""

    name: str
    reliabilities: tuple[float, ...]
    functions: tuple[tuple[frozenset[int], ...], ...]
    network: dict | None = None

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self.functions)

    def masks(self) -> list[list[int]]:
        return [[sum(1 << c for c in impl) for impl in f] for f in self.functions]


@dataclass
class Draw:
    """Systems of one workload plus how they were drawn."""

    systems: list[System]
    redraws: int = 0
    notes: dict = field(default_factory=dict)


def draw_system(
    rng: random.Random,
    sizes: tuple[int, ...],
    components: int,
    sharing: float,
    name: str,
    max_impl_size: int = 3,
) -> System:
    reliabilities = tuple(rng.uniform(0.05, 0.95) for _ in range(components))
    fresh = list(range(components))
    used: list[int] = []

    def draw_set() -> frozenset[int]:
        size = rng.randint(1, min(max_impl_size, components))
        chosen: set[int] = set()
        while len(chosen) < size:
            candidates = [c for c in used if c not in chosen]
            if candidates and (not fresh or rng.random() < sharing):
                pick = candidates[rng.randrange(len(candidates))]
            elif fresh:
                pick = fresh.pop(0)
                used.append(pick)
            else:
                break
            chosen.add(pick)
        return frozenset(chosen)

    functions = []
    for t in sizes:
        sets: list[frozenset[int]] = []
        while len(sets) < t:
            candidate = draw_set()
            if candidate not in sets:
                sets.append(candidate)
        functions.append(tuple(sets))
    return System(name, reliabilities, tuple(functions))


def covers_connected(system: System) -> bool:
    """True when the function-component graph over every declared component
    is connected: each component is used and no group of functions shares
    nothing with the rest."""
    unions = [0] * len(system.functions)
    for i, masks in enumerate(system.masks()):
        for m in masks:
            unions[i] |= m
    reach, pending = unions[0], unions[1:]
    grew = True
    while grew and pending:
        linked = [u for u in pending if u & reach]
        pending = [u for u in pending if not u & reach]
        grew = bool(linked)
        for u in linked:
            reach |= u
    return not pending and reach == (1 << len(system.reliabilities)) - 1


def distinct_unions(system: System) -> int:
    """Number of distinct union masks over all covering selections, i.e.
    the products the covering-selection sum needs at least once."""
    unions = np.zeros(1, dtype=np.uint64)
    for masks in system.masks():
        subsets = {0}
        for m in masks:
            subsets |= {s | m for s in subsets}
        subsets.discard(0)
        merged = np.sort(np.bitwise_or.outer(unions, np.array(sorted(subsets), dtype=np.uint64)), axis=None)
        # np.unique hashes and is far slower than a sort on this size.
        unions = merged[np.concatenate(([True], merged[1:] != merged[:-1]))]
    return int(unions.size)


def slots(system: System) -> int:
    return sum(len(impl) for f in system.functions for impl in f)


def to_document(system: System) -> dict:
    doc: dict = {
        "name": system.name,
        "components": [
            {"id": i, "reliability": r} for i, r in enumerate(system.reliabilities)
        ],
        "functions": [
            [
                {"label": f"F{i + 1}.{j + 1}", "components": sorted(impl)}
                for j, impl in enumerate(function)
            ]
            for i, function in enumerate(system.functions)
        ],
    }
    if system.network is not None:
        doc["network"] = system.network
    return doc


def from_document(doc: dict) -> System:
    by_id = {int(c["id"]): float(c["reliability"]) for c in doc["components"]}
    return System(
        name=str(doc.get("name", "")),
        reliabilities=tuple(by_id[i] for i in range(len(by_id))),
        functions=tuple(
            tuple(frozenset(int(c) for c in entry["components"]) for entry in function)
            for function in doc["functions"]
        ),
        network=doc.get("network"),
    )


def write_system(system: System, path: Path) -> None:
    path.write_text(json.dumps(to_document(system), indent=2) + "\n")
