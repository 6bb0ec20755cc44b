"""The loader, the validator and the product primitive against reference copies.

`system_from_dict`, `load_system`, `validate_system` and `mask_product` were
rewritten for speed.  The per-entry versions they replaced are kept here as
references: every spec, violation, message and product bit must come out the
same.
"""

import copy
import functools
import json
import math
import operator
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from relcover import (
    Component,
    DoorNetwork,
    Implementation,
    SystemSpec,
    load_system,
    system_from_dict,
    validate_system,
)
from relcover import system
from relcover.network import integer_field
from relcover.system import CHUNK_BITS, CHUNK_MASK, ValidationReport, Violation, mask_product

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# --- reference copies --------------------------------------------------------


def reference_from_dict(doc):
    try:
        components = []
        for c in doc["components"]:
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
        for key in ("claimed_reliability", "claimed_lower_bound"):
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


def reference_load(path):
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply to load") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return reference_from_dict(doc)


def reference_validate(spec):
    bad = []
    ids = [c.id for c in spec.components]
    if sorted(ids) != list(range(len(ids))):
        bad.append(
            Violation(
                "component-ids",
                f"component ids must be exactly 0..{len(ids) - 1}, but are {sorted(ids)}",
            )
        )
    if len(ids) > system.MAX_COMPONENTS:
        bad.append(
            Violation(
                "too-many-components",
                f"{len(ids)} components exceeds the mask width cap {system.MAX_COMPONENTS}",
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
        seen_sets = {}
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


def reference_mask_product(mask, reliabilities):
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


# --- the loader --------------------------------------------------------------

MISSING = object()

values = (
    st.integers(-3, 12)
    | st.integers(0, 12).map(float)
    | st.floats(0.0, 1.0)
    | st.booleans()
    | st.text(max_size=3)
    | st.none()
    | st.just(math.nan)
    | st.integers(min_value=10**300, max_value=10**310)
)


def _value_paths(doc):
    """Paths to every id, reliability, claim, label and name in a document."""
    for k, _ in enumerate(doc["components"]):
        yield ("components", k, "id")
        yield ("components", k, "reliability")
    for i, function in enumerate(doc["functions"]):
        for j, entry in enumerate(function):
            yield ("functions", i, j, "components")
            yield ("functions", i, j, "label")
            for k, _ in enumerate(entry["components"]):
                yield ("functions", i, j, "components", k)
    for key in ("claimed_reliability", "claimed_lower_bound", "name"):
        if key in doc:
            yield (key,)


def edited(doc, edits):
    """A copy of doc with each (path, value) set, or deleted for MISSING."""
    doc = copy.deepcopy(doc)
    # inner paths first, so an edit of a whole list cannot strand one inside it
    for path, value in sorted(edits, key=lambda edit: -len(edit[0])):
        *head, last = path
        container = functools.reduce(operator.getitem, head, doc)
        if value is MISSING:
            del container[last]
        else:
            container[last] = value
    return doc


@st.composite
def edited_documents(draw):
    name = draw(st.sampled_from(["t1.json", "t3.json", "dms_two_door.json", "bench_2x2.json"]))
    doc = json.loads((FIXTURES / name).read_text())
    paths = draw(st.lists(st.sampled_from(list(_value_paths(doc))), max_size=3, unique=True))
    edits = []
    for path in paths:
        # list items are replaced, dict keys replaced or deleted
        choices = values if isinstance(path[-1], int) else values | st.just(MISSING)
        edits.append((path, draw(choices)))
    return doc, edits


def fails(doc):
    try:
        reference_from_dict(doc)
    except ValueError:
        return True
    return False


@settings(max_examples=400)
@given(drawn=edited_documents())
def test_loader_matches_the_per_entry_reference(drawn):
    """Ints, integral floats, bools, strings, None, NaN, huge ints and missing
    keys in any field: the same spec, or a ValueError whenever the reference
    raises one, with the same message when one edit alone is at fault.  A
    document with several faults may report another of them first: the
    loader checks all ids before all reliabilities, and components before
    implementations."""
    base, edits = drawn
    doc = edited(base, edits)
    try:
        want = reference_from_dict(doc)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            system_from_dict(doc)
        if sum(fails(edited(base, [edit])) for edit in edits) == 1:
            assert str(got.value) == str(exc)
        return
    # repr tells an int id from a float one and compares NaN reliabilities
    assert repr(system_from_dict(doc)) == repr(want)


def test_one_fault_per_field_reports_the_reference_message():
    base = json.loads((FIXTURES / "t1.json").read_text())
    cases = [
        (("components", 1, "id"), 1.5),
        (("components", 1, "id"), True),
        (("components", 1, "id"), MISSING),
        (("components", 1, "reliability"), "0.5"),
        (("components", 1, "reliability"), None),
        (("components", 1, "reliability"), 10**400),
        (("functions", 0, 1, "components", 0), "1"),
        (("functions", 0, 1, "components", 0), math.nan),
        (("functions", 0, 1, "components"), 7),
        (("functions", 0, 1, "components"), MISSING),
        (("claimed_reliability",), False),
    ]
    for edit in cases:
        doc = edited(base, [edit])
        with pytest.raises(ValueError) as want:
            reference_from_dict(doc)
        with pytest.raises(ValueError) as got:
            system_from_dict(doc)
        assert str(got.value) == str(want.value), edit


T1_TEXT = (FIXTURES / "t1.json").read_text()


@pytest.mark.parametrize(
    "content",
    [
        T1_TEXT.replace("\n", "\r\n").encode(),
        T1_TEXT.replace("\n", "\r").encode(),
        b'{\r\n  "name": "x",\r\n  "components": [\r\n}',
        b'{\r\r"name": 1,\r oops}',
        b'{"name": "a\rb"}',
        b"\xef\xbb\xbf" + T1_TEXT.encode(),
        b'{"name": "\xff"}',
        b"[1, 2]",
        b"[" * 100_000,
    ],
    ids=["crlf", "cr", "crlf-error", "cr-error", "cr-in-string", "bom", "bad-utf8", "list", "deep"],
)
def test_load_reads_the_text_open_reads(tmp_path, content):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    try:
        want = repr(reference_load(path))
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            load_system(path)
        assert str(got.value) == str(exc)
    else:
        assert repr(load_system(path)) == want


# --- the validator -----------------------------------------------------------

ids = st.integers(-1, 6) | st.sampled_from([0.0, 1.0, True, False])
reliabilities = st.floats(-0.5, 1.5) | st.sampled_from([0.0, 1.0, math.nan, math.inf])


@st.composite
def broken_specs(draw):
    """Specs of up to 6 components that break any of the rules."""
    count = draw(st.integers(0, 6))
    if draw(st.booleans()):
        component_ids = draw(st.lists(ids, min_size=count, max_size=count))
    else:
        component_ids = list(range(count))
    components = tuple(Component(c, draw(reliabilities)) for c in component_ids)
    functions = []
    for i in range(draw(st.integers(0, 3))):
        function = []
        for j in range(draw(st.integers(0, 4))):
            members = draw(st.frozensets(st.integers(-1, 7), max_size=3))
            at = (i, j) if draw(st.integers(0, 4)) else draw(st.tuples(ids, ids))
            function.append(Implementation(*at, members))
        if function and draw(st.booleans()):
            function.append(function[0])  # a duplicate, and an index mismatch
        functions.append(tuple(function))
    return SystemSpec("drawn", components, tuple(functions))


@settings(max_examples=300)
@given(spec=broken_specs())
def test_validator_matches_the_reference(spec):
    # a width cap of 4 is broken by some of the drawn specs
    with mock.patch.object(system, "MAX_COMPONENTS", 4):
        assert validate_system(spec).violations == reference_validate(spec).violations


# --- the product primitive ---------------------------------------------------


@settings(max_examples=300)
@given(
    bits=st.frozensets(st.integers(0, 127), max_size=40)
    | st.frozensets(st.integers(49, 127), max_size=40)
    | st.integers(0, 2**128 - 1),
    pool=st.lists(st.floats(allow_nan=False), min_size=17, max_size=17),
)
def test_mask_product_matches_the_reference(bits, pool):
    # sparse masks leave whole chunks empty, and masks above id 48 at least
    # the first three; a pool of 17 repeated gives each chunk of 16 ids
    # other values
    mask = bits if isinstance(bits, int) else sum(1 << c for c in bits)
    reliabilities = (pool * 8)[:128]
    got = mask_product(mask, reliabilities)
    want = reference_mask_product(mask, reliabilities)
    assert got.hex() == want.hex()
