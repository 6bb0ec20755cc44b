"""Regenerate every committed fixture under fixtures/.

Everything here is deterministic: hand-written example systems, two door
networks whose implementations are derived from their minimal paths, two
persisted benchmark instances, and the first witness pair found by the
bound non-monotonicity search with its committed seed.  Run from anywhere:

    python3 scripts/make_fixtures.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from relcover import (
    Component,
    DoorNetwork,
    FamilyShape,
    Implementation,
    SearchConfig,
    SystemSpec,
    door_functions,
    generate_random_system,
    nonmonotonicity_search,
    save_system,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Committed search constants; the acceptance suite re-runs these.
WITNESS_SEED = 1
WITNESS_TRIALS = 300

# Committed benchmark instance constants.
BENCH_2X2 = dict(sizes=(2, 2), components=31, sharing=0.4, seed=0, max_impl_size=8)
BENCH_3X3 = dict(sizes=(3, 3, 3), components=40, sharing=0.5, seed=7, max_impl_size=3)


def _system(name, reliabilities, functions, claimed, network=None):
    comps = tuple(Component(i, r) for i, r in enumerate(reliabilities))
    built = tuple(
        tuple(
            Implementation(i, j, frozenset(comps_set), label=label)
            for j, (label, comps_set) in enumerate(function)
        )
        for i, function in enumerate(functions)
    )
    return SystemSpec(name, comps, built, network=network, claimed=claimed)


def reference_systems() -> dict[str, SystemSpec]:
    # Three small single-function systems with externally claimed reference
    # values carried as metadata.  t1's claims reproduce from this model;
    # t2 and t3 claims do not (see the bounds tests), which is exactly why
    # they ship with both claimed and computed values displayed side by side.
    t1 = _system(
        "t1",
        [0.5, 0.7, 0.2, 0.6, 0.3],
        [[("A", {0, 1, 2}), ("B", {1, 2, 3}), ("C", {3, 4})]],
        {"claimed_reliability": 0.2668, "claimed_lower_bound": 0.2260049},
    )
    # t2: the first two implementations use identical component sets, so it
    # fails strict validation on purpose; the bounds path accepts it.
    t2 = _system(
        "t2",
        [0.5, 0.7, 0.2521, 0.6, 0.3],
        [[("A", {0, 1, 2}), ("B", {0, 1, 2}), ("C", {3, 4})]],
        {"claimed_reliability": 0.2668232, "claimed_lower_bound": 0.2257831},
    )
    t3 = _system(
        "t3",
        [0.5, 0.7, 0.3, 0.6, 0.3],
        [[("A", {0, 1, 2}), ("B", {0, 4}), ("C", {3, 4})]],
        {"claimed_reliability": 0.261, "claimed_lower_bound": 0.2278481},
    )
    return {"t1": t1, "t2": t2, "t3": t3}


def one_door() -> SystemSpec:
    # A single door: switch -> two sensors -> two controllers -> actuator.
    # Sensor s2 can reach either controller, so the paths share components
    # without being nested.
    net = DoorNetwork(
        nodes=("dsw", "s1", "s2", "cA", "cB", "act"),
        edges=(
            ("dsw", "s1"),
            ("dsw", "s2"),
            ("s1", "cA"),
            ("s2", "cA"),
            ("s2", "cB"),
            ("cA", "act"),
            ("cB", "act"),
        ),
        node_components={"dsw": 0, "s1": 1, "s2": 2, "cA": 3, "cB": 4, "act": 5},
        terminals=(("dsw", "act"),),
    )
    reliabilities = [0.97, 0.93, 0.91, 0.96, 0.94, 0.98]
    functions = door_functions(net)
    comps = tuple(Component(i, r) for i, r in enumerate(reliabilities))
    return SystemSpec("dms-one-door", comps, functions, network=net)


def two_door() -> SystemSpec:
    # Two doors sharing a central controller component; door 1 additionally
    # lets its first sensor fall back to the local controller.
    net = DoorNetwork(
        nodes=(
            "dsw1", "s11", "s12", "cl1", "act1",
            "dsw2", "s21", "s22", "cl2", "act2",
            "cc",
        ),
        edges=(
            ("dsw1", "s11"),
            ("dsw1", "s12"),
            ("s11", "cc"),
            ("s11", "cl1"),
            ("s12", "cl1"),
            ("cc", "act1"),
            ("cl1", "act1"),
            ("dsw2", "s21"),
            ("dsw2", "s22"),
            ("s21", "cc"),
            ("s22", "cl2"),
            ("cc", "act2"),
            ("cl2", "act2"),
        ),
        node_components={
            "dsw1": 0, "dsw2": 1,
            "s11": 2, "s12": 3, "s21": 4, "s22": 5,
            "cc": 6, "cl1": 7, "cl2": 8,
            "act1": 9, "act2": 10,
        },
        terminals=(("dsw1", "act1"), ("dsw2", "act2")),
    )
    reliabilities = [0.97, 0.96, 0.93, 0.90, 0.92, 0.91, 0.95, 0.88, 0.89, 0.98, 0.97]
    functions = door_functions(net)
    comps = tuple(Component(i, r) for i, r in enumerate(reliabilities))
    return SystemSpec("dms-two-door", comps, functions, network=net)


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)

    for name, spec in reference_systems().items():
        save_system(spec, FIXTURES / f"{name}.json")

    save_system(one_door(), FIXTURES / "dms_one_door.json")
    save_system(two_door(), FIXTURES / "dms_two_door.json")

    for label, cfg in (("bench_2x2", BENCH_2X2), ("bench_3x3", BENCH_3X3)):
        spec = generate_random_system(
            FamilyShape(cfg["sizes"]),
            cfg["components"],
            cfg["sharing"],
            cfg["seed"],
            max_impl_size=cfg["max_impl_size"],
            name=label.replace("_", "-"),
        )
        save_system(spec, FIXTURES / f"{label}.json")

    witnesses = nonmonotonicity_search(
        SearchConfig(), trials=WITNESS_TRIALS, seed=WITNESS_SEED
    )
    if not witnesses:
        raise SystemExit("search produced no witness; pick a different seed")
    first = witnesses[0]
    save_system(first.low, FIXTURES / "witness_low.json")
    save_system(first.high, FIXTURES / "witness_high.json")
    print(
        f"witness from trial {first.trial}: "
        f"reliability {first.reliability_low:.6f} < {first.reliability_high:.6f} "
        f"but bound {first.bound_low:.6f} > {first.bound_high:.6f}"
    )
    for path in sorted(FIXTURES.glob("*.json")):
        print("wrote", path.relative_to(FIXTURES.parent))


if __name__ == "__main__":
    main()
