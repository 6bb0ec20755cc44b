import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from relcover import (
    Component,
    DoorNetwork,
    FamilyShape,
    GenerationError,
    Implementation,
    InvalidSystemError,
    SystemSpec,
    dumps_system,
    generate_random_system,
    implementation_probability,
    intersection_probability,
    load_system,
    save_system,
    system_from_dict,
    system_to_dict,
    validate_system,
)
from relcover import system

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def make_system(reliabilities, functions, name="test"):
    comps = tuple(Component(i, r) for i, r in enumerate(reliabilities))
    built = tuple(
        tuple(Implementation(i, j, frozenset(s)) for j, s in enumerate(function))
        for i, function in enumerate(functions)
    )
    return SystemSpec(name, comps, built)


@pytest.fixture
def abc(t1):
    a, b, c = t1.functions[0]
    return a, b, c


# --- shapes ---------------------------------------------------------------


def test_shape_derived_quantities():
    shape = FamilyShape((3, 2, 2))
    assert shape.n == 3
    assert shape.m == 7
    assert shape.product_size == 12


def test_shape_rejects_empty_and_zero():
    with pytest.raises(ValueError):
        FamilyShape(())
    with pytest.raises(ValueError):
        FamilyShape((2, 0))


def test_uniform_shape():
    assert FamilyShape.uniform(3, 3).sizes == (3, 3, 3)


# --- validation -----------------------------------------------------------


def test_t1_is_valid(t1):
    assert validate_system(t1).ok


def test_reliability_one_is_a_violation():
    spec = make_system([0.5, 1.0], [[{0}, {1}]])
    kinds = {v.kind for v in validate_system(spec).violations}
    assert kinds == {"reliability-range"}


def test_duplicate_sets_within_function_flagged(t2):
    kinds = {v.kind for v in validate_system(t2).violations}
    assert kinds == {"duplicate-implementation"}


def test_same_set_across_functions_is_fine():
    spec = make_system([0.5, 0.6], [[{0, 1}], [{0, 1}]])
    assert validate_system(spec).ok


def test_non_dense_ids_flagged():
    comps = (Component(0, 0.5), Component(2, 0.5))
    spec = SystemSpec("x", comps, ((Implementation(0, 0, frozenset({0})),),))
    kinds = {v.kind for v in validate_system(spec).violations}
    assert "component-ids" in kinds


def test_unknown_component_and_empty_set_flagged():
    spec = make_system([0.5], [[{0, 7}, set()]])
    kinds = {v.kind for v in validate_system(spec).violations}
    assert kinds == {"unknown-component", "empty-implementation"}


def test_index_mismatch_flagged():
    comps = (Component(0, 0.5),)
    impl = Implementation(1, 0, frozenset({0}))
    spec = SystemSpec("x", comps, ((impl,),))
    kinds = {v.kind for v in validate_system(spec).violations}
    assert "index-mismatch" in kinds


def test_width_cap_is_configurable(monkeypatch):
    spec = make_system([0.5] * 10, [[{0}]])
    assert validate_system(spec).ok
    monkeypatch.setattr(system, "MAX_COMPONENTS", 5)
    assert not validate_system(spec).ok


def test_no_functions_flagged():
    for functions, kind in [((), "no-functions"), (((),), "empty-function")]:
        spec = SystemSpec("x", (Component(0, 0.5),), functions)
        kinds = {v.kind for v in validate_system(spec).violations}
        assert kind in kinds


# --- probabilities --------------------------------------------------------


def test_implementation_probability_t1(t1, abc):
    a, b, c = abc
    # 0.5 * 0.7 * 0.2 and 0.6 * 0.3, straight products over the sets
    assert implementation_probability(t1, a) == pytest.approx(0.07, abs=1e-15)
    assert implementation_probability(t1, b) == pytest.approx(0.084, abs=1e-15)
    assert implementation_probability(t1, c) == pytest.approx(0.18, abs=1e-15)


def test_singleton_probability():
    spec = make_system([0.5], [[{0}]])
    assert implementation_probability(spec, spec.functions[0][0]) == 0.5


def test_foreign_implementation_rejected(t1):
    foreign = Implementation(0, 0, frozenset({4}))
    with pytest.raises(ValueError, match="does not match"):
        implementation_probability(t1, foreign)
    with pytest.raises(ValueError, match="does not match"):
        intersection_probability(t1, [foreign])
    outside = Implementation(7, 0, frozenset({0}))
    with pytest.raises(ValueError, match="is not part of system"):
        implementation_probability(t1, outside)


@pytest.mark.parametrize("ids", [(0, 5), (-1, 0)], ids=["gap", "negative"])
def test_sparse_component_ids_rejected(ids):
    impl = Implementation(0, 0, frozenset({ids[1]}))
    spec = SystemSpec("sparse", tuple(Component(i, 0.5) for i in ids), ((impl,),))
    with pytest.raises(ValueError, match=rf"component ids .* are \[{ids[0]}, {ids[1]}\]"):
        implementation_probability(spec, impl)
    with pytest.raises(ValueError, match="component ids"):
        intersection_probability(spec, [impl])


@pytest.mark.parametrize("component", [7, 10**7, -1], ids=["past-end", "huge", "negative"])
def test_component_outside_the_spec_rejected(component):
    # the spec is checked before any mask is built: no IndexError, no
    # 10^7-bit mask, no negative shift
    impl = Implementation(0, 0, frozenset({component}))
    spec = SystemSpec("outside", tuple(Component(i, 0.5) for i in range(3)), ((impl,),))
    message = rf"missing components \[{component}\]"
    with pytest.raises(InvalidSystemError, match=message):
        implementation_probability(spec, impl)
    with pytest.raises(InvalidSystemError, match=message):
        intersection_probability(spec, [impl])


def test_intersection_probability_t1(t1, abc):
    a, b, c = abc
    # union {0,1,2,3} -> 0.5*0.7*0.2*0.6; all three cover every component
    assert intersection_probability(t1, [a, b]) == pytest.approx(0.042, abs=1e-15)
    assert intersection_probability(t1, [a, b, c]) == pytest.approx(0.0126, abs=1e-15)
    assert intersection_probability(t1, [a, c]) == pytest.approx(0.0126, abs=1e-15)


def test_intersection_of_one_equals_implementation_probability(t1, abc):
    for impl in abc:
        assert intersection_probability(t1, [impl]) == implementation_probability(t1, impl)


def test_intersection_rejects_empty(t1):
    with pytest.raises(ValueError):
        intersection_probability(t1, [])


def test_intersection_order_invariant(t1, abc):
    a, b, c = abc
    assert intersection_probability(t1, [a, b, c]) == intersection_probability(t1, [c, a, b])


def test_intersection_never_exceeds_min(t1, abc):
    a, b, c = abc
    both = intersection_probability(t1, [a, c])
    assert both <= min(implementation_probability(t1, a), implementation_probability(t1, c))


def test_disjoint_intersection_is_plain_product():
    spec = make_system([0.3, 0.9, 0.4, 0.8], [[{0, 1}, {2, 3}]])
    x, y = spec.functions[0]
    expected = implementation_probability(spec, x) * implementation_probability(spec, y)
    assert intersection_probability(spec, [x, y]) == pytest.approx(expected, abs=1e-15)


@given(seed=st.integers(0, 10**6))
def test_intersection_monotone_under_extension(seed):
    spec = generate_random_system(FamilyShape((3, 2)), 8, 0.6, seed)
    impls = list(spec.implementations())
    shrinking = [
        intersection_probability(spec, impls[:k]) for k in range(1, len(impls) + 1)
    ]
    assert all(a >= b for a, b in zip(shrinking, shrinking[1:]))


# --- generator ------------------------------------------------------------


def test_generator_is_deterministic():
    a = generate_random_system(FamilyShape((2, 3)), 9, 0.5, seed=42)
    b = generate_random_system(FamilyShape((2, 3)), 9, 0.5, seed=42)
    assert dumps_system(a) == dumps_system(b)
    c = generate_random_system(FamilyShape((2, 3)), 9, 0.5, seed=43)
    assert dumps_system(a) != dumps_system(c)


@given(
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    seed=st.integers(0, 10**6),
    sharing=st.floats(0.0, 1.0),
)
def test_generator_output_validates(sizes, seed, sharing):
    spec = generate_random_system(FamilyShape(tuple(sizes)), 12, sharing, seed)
    assert validate_system(spec).ok


def test_generator_zero_sharing_gives_disjoint_sets():
    shape = FamilyShape((2, 2, 2))
    # 6 implementations of size <= 3 fit disjointly into 18 components
    spec = generate_random_system(shape, 18, 0.0, seed=5)
    seen = set()
    for impl in spec.implementations():
        assert not (impl.components & seen)
        seen |= impl.components
    assert validate_system(spec).ok


def test_generator_reliability_range():
    spec = generate_random_system(FamilyShape((2, 2)), 8, 0.5, seed=0)
    for comp in spec.components:
        assert 0.05 <= comp.reliability <= 0.95


def test_generator_infeasible_distinctness_raises():
    # one component admits a single non-empty set; five distinct are impossible
    with pytest.raises(GenerationError):
        generate_random_system(FamilyShape((5,)), 1, 0.5, seed=0)


def test_generator_gives_up_after_retries():
    # full sharing reuses component 0 for every set after the first
    with pytest.raises(GenerationError, match="could not draw 2 distinct sets after retries"):
        generate_random_system(FamilyShape((2,)), 4, 1.0, seed=0, max_impl_size=1)


def test_generator_needs_enough_components():
    with pytest.raises(ValueError):
        generate_random_system(FamilyShape((1, 1, 1)), 2, 0.5, seed=0)


def test_generator_rejects_more_components_than_the_cap():
    with pytest.raises(ValueError, match="129 components exceeds the mask width cap 128"):
        generate_random_system(FamilyShape((2, 2)), 129, 0.5, seed=0)


def test_generator_rejects_bad_sharing():
    with pytest.raises(ValueError):
        generate_random_system(FamilyShape((2,)), 4, 1.5, seed=0)


def test_generator_rejects_negative_seed():
    # random.Random(-5) would silently draw the seed-5 system
    with pytest.raises(ValueError, match="seed"):
        generate_random_system(FamilyShape((2, 3)), 9, 0.5, seed=-5)


# --- file round trip ------------------------------------------------------


def test_round_trip_preserves_spec(tmp_path, t1):
    path = tmp_path / "t1.json"
    save_system(t1, path)
    again = load_system(path)
    assert again == t1
    assert dumps_system(again) == dumps_system(t1)


def test_round_trip_through_dict(t3):
    assert system_from_dict(system_to_dict(t3)) == t3


def test_claimed_metadata_round_trip(t1):
    assert t1.claimed == {
        "claimed_reliability": 0.2668,
        "claimed_lower_bound": 0.2260049,
    }


def test_load_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError):
        load_system(bad)
    missing_fields = tmp_path / "missing.json"
    missing_fields.write_text('{"name": "x"}')
    with pytest.raises(ValueError):
        load_system(missing_fields)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    with pytest.raises(ValueError, match="nested too deeply"):
        load_system(deep)


def test_network_round_trip(fixtures_dir, tmp_path):
    spec = load_system(fixtures_dir / "dms_two_door.json")
    assert spec.network is not None
    path = tmp_path / "copy.json"
    save_system(spec, path)
    again = load_system(path)
    assert again.network == spec.network
    assert again == spec


def test_from_dict_accepts_integral_floats(t1):
    doc = system_to_dict(t1)
    doc["components"][0]["id"] = 0.0
    impl = doc["functions"][0][0]
    impl["components"] = [float(c) for c in impl["components"]]
    assert system_from_dict(doc) == system_from_dict(system_to_dict(t1))


@pytest.mark.parametrize(
    "field, value",
    [("reliability", "0.5"), ("reliability", True), ("claimed_reliability", "0.2668")],
    ids=["string-reliability", "true-reliability", "string-claim"],
)
def test_from_dict_requires_json_numbers(t1, field, value):
    # float() reads "0.5" and True; the loader must not
    doc = system_to_dict(t1)
    if field == "reliability":
        doc["components"][0][field] = value
    else:
        doc[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be a number, got {value!r}$"):
        system_from_dict(doc)


# --- loader fuzzing ---------------------------------------------------------

_KEYS = (
    "id", "reliability", "components", "functions", "label", "name", "network",
    "nodes", "edges", "terminals", "component", "from", "to", "source", "sink",
    "claimed_reliability",
)

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.integers(min_value=10**300, max_value=10**310)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4)
)
junk = scalars | st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _slots(node):
    """(container, key) for every value nested in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@st.composite
def mutated_documents(draw, fixture, part=None):
    doc = json.loads((FIXTURES / fixture).read_text())
    if part is not None:
        doc = doc[part]
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        ids = [(c, k) for c, k in slots if type(c[k]) is int]
        if not slots:
            break
        # Half the mutations hit an integer, where the ids are.
        container, key = draw(st.sampled_from(draw(st.sampled_from([slots, ids or slots]))))
        if draw(st.booleans()):
            container[key] = draw(junk)
        else:
            del container[key]
    return doc


def _assert_ids_match(net, doc):
    nodes = [e for e in doc["nodes"] if "component" in e]
    assert list(net.node_components.values()) == [e["component"] for e in nodes]
    edges = [e for e in doc["edges"] if "component" in e]
    assert list(net.edge_components.values()) == [e["component"] for e in edges]
    values = [*net.node_components.values(), *net.edge_components.values()]
    assert all(type(v) is int for v in values)


@settings(max_examples=150)
@given(doc=mutated_documents("t1.json") | mutated_documents("dms_two_door.json"))
def test_system_loader_returns_matching_ids_or_value_error(doc):
    try:
        spec = system_from_dict(doc)
    except ValueError:
        return
    assert [c.id for c in spec.components] == [c["id"] for c in doc["components"]]
    assert [[impl.components for impl in f] for f in spec.functions] == [
        [frozenset(entry["components"]) for entry in f] for f in doc["functions"]
    ]
    ids = [c.id for c in spec.components]
    ids += [c for impl in spec.implementations() for c in impl.components]
    assert all(type(c) is int for c in ids)
    if spec.network is not None:
        _assert_ids_match(spec.network, doc["network"])


@settings(max_examples=150)
@given(doc=mutated_documents("dms_two_door.json", part="network"))
def test_network_loader_returns_matching_ids_or_value_error(doc):
    try:
        net = DoorNetwork.from_dict(doc)
    except ValueError:
        return
    _assert_ids_match(net, doc)
