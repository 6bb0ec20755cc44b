import itertools
import time

import pytest
from hypothesis import given, strategies as st

from relcover import CapExceeded, DoorNetwork, load_system, minimal_paths
from relcover import network
from relcover.network import _simple_paths


def simple_net(nodes, edges, terminals, node_components=None, edge_components=None):
    return DoorNetwork(
        tuple(nodes),
        tuple(edges),
        node_components or {},
        tuple(terminals),
        edge_components or {},
    )


# --- construction ---------------------------------------------------------


def test_duplicate_node_names_rejected():
    with pytest.raises(ValueError):
        simple_net(["a", "a"], [], [("a", "a")])


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        simple_net(["a", "b"], [("a", "a")], [("a", "b")])


def test_unknown_edge_endpoint_rejected():
    with pytest.raises(ValueError):
        simple_net(["a", "b"], [("a", "z")], [("a", "b")])


def test_unknown_terminal_rejected():
    with pytest.raises(ValueError):
        simple_net(["a", "b"], [("a", "b")], [("a", "z")])


def test_component_mapping_must_reference_known_node():
    with pytest.raises(ValueError):
        simple_net(["a", "b"], [("a", "b")], [("a", "b")], node_components={"z": 0})


def test_component_mapping_must_reference_known_edge():
    with pytest.raises(ValueError):
        simple_net(
            ["a", "b"],
            [("a", "b")],
            [("a", "b")],
            edge_components={("b", "a"): 0},
        )


def test_dict_round_trip(fixtures_dir):
    net = load_system(fixtures_dir / "dms_two_door.json").network
    assert DoorNetwork.from_dict(net.to_dict()) == net
    net = simple_net(["a", "b"], [("a", "b")], [("a", "b")], edge_components={("a", "b"): 0})
    assert net.to_dict()["edges"] == [{"from": "a", "to": "b", "component": 0}]
    assert DoorNetwork.from_dict(net.to_dict()) == net


def test_from_dict_rejects_malformed():
    with pytest.raises(ValueError):
        DoorNetwork.from_dict({"nodes": [{"name": "a"}]})


@pytest.mark.parametrize("value", [0.9, True, "1", float("inf")])
@pytest.mark.parametrize("where", ["nodes", "edges"])
def test_from_dict_rejects_non_integer_components(where, value):
    doc = {
        "nodes": [{"name": "a", "component": 0}, {"name": "b"}],
        "edges": [{"from": "a", "to": "b", "component": 1}],
        "terminals": [{"source": "a", "sink": "b"}],
    }
    doc[where][0]["component"] = value
    with pytest.raises(ValueError, match="must be an integer"):
        DoorNetwork.from_dict(doc)


# --- path extraction ------------------------------------------------------


def test_one_door_paths_match_stored_functions(fixtures_dir):
    spec = load_system(fixtures_dir / "dms_one_door.json")
    paths = minimal_paths(spec.network, 0)
    assert paths == [
        frozenset({0, 1, 3, 5}),
        frozenset({0, 2, 3, 5}),
        frozenset({0, 2, 4, 5}),
    ]
    assert paths == [impl.components for impl in spec.functions[0]]


def test_two_door_paths_match_stored_functions(fixtures_dir):
    spec = load_system(fixtures_dir / "dms_two_door.json")
    for i, function in enumerate(spec.functions):
        assert minimal_paths(spec.network, i) == [impl.components for impl in function]
    # second door has one fewer fallback route than the first
    assert [len(f) for f in spec.functions] == [3, 2]


def test_shared_component_appears_in_both_doors(fixtures_dir):
    spec = load_system(fixtures_dir / "dms_two_door.json")
    per_door = [
        set().union(*(impl.components for impl in f)) for f in spec.functions
    ]
    assert per_door[0] & per_door[1] == {6}


def test_dominated_path_removed():
    # detour a->b->c traverses a strict superset of the direct route
    net = simple_net(
        ["a", "b", "c"],
        [("a", "c"), ("a", "b"), ("b", "c")],
        [("a", "c")],
        node_components={"a": 0, "b": 1, "c": 2},
    )
    assert minimal_paths(net, 0) == [frozenset({0, 2})]


def test_unmapped_nodes_merge_paths():
    # two relays with no component of their own yield one implementation
    net = simple_net(
        ["a", "x", "y", "c"],
        [("a", "x"), ("a", "y"), ("x", "c"), ("y", "c")],
        [("a", "c")],
        node_components={"a": 0, "c": 1},
    )
    assert minimal_paths(net, 0) == [frozenset({0, 1})]


def test_edge_components_are_collected():
    net = simple_net(
        ["a", "b"],
        [("a", "b")],
        [("a", "b")],
        node_components={"a": 0, "b": 1},
        edge_components={("a", "b"): 2},
    )
    assert minimal_paths(net, 0) == [frozenset({0, 1, 2})]


def test_unreachable_sink_gives_no_paths():
    net = simple_net(["a", "b"], [], [("a", "b")], node_components={"a": 0, "b": 1})
    assert minimal_paths(net, 0) == []


def test_function_index_out_of_range():
    net = simple_net(["a", "b"], [("a", "b")], [("a", "b")])
    with pytest.raises(ValueError):
        minimal_paths(net, 1)


def test_source_equal_to_sink_is_the_one_node_path():
    net = simple_net(
        ["a", "b"],
        [("a", "b"), ("b", "a")],
        [("a", "a")],
        node_components={"a": 0, "b": 1},
    )
    assert minimal_paths(net, 0) == [frozenset({0})]


def test_duplicate_edges_count_once():
    net = simple_net(
        ["a", "b", "c"],
        [("a", "b"), ("a", "b"), ("b", "c"), ("a", "c"), ("b", "c")],
        [("a", "c")],
        node_components={"a": 0, "b": 1, "c": 2},
        edge_components={("a", "b"): 3},
    )
    assert list(_simple_paths(net.edges, "a", "c")) == [["a", "b", "c"], ["a", "c"]]
    assert minimal_paths(net, 0) == [frozenset({0, 2})]


def brute_force_paths(net, source, sink):
    """Every node sequence from source to sink without repeats, edge by edge."""
    if source == sink:
        return {(source,)}
    inner = [v for v in net.nodes if v not in (source, sink)]
    edges = set(net.edges)
    return {
        (source, *middle, sink)
        for r in range(len(inner) + 1)
        for middle in itertools.permutations(inner, r)
        if all(pair in edges for pair in zip((source, *middle), (*middle, sink)))
    }


@st.composite
def small_networks(draw):
    nodes = [f"n{i}" for i in range(draw(st.integers(1, 6)))]
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=14)) if pairs else []
    mapped_nodes = draw(st.lists(st.sampled_from(nodes), unique=True))
    node_components = {v: draw(st.integers(0, 4)) for v in mapped_nodes}
    mapped_edges = draw(st.lists(st.sampled_from(edges), unique=True)) if edges else []
    edge_components = {e: draw(st.integers(5, 7)) for e in mapped_edges}
    terminal = (draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes)))
    return simple_net(nodes, edges, [terminal], node_components, edge_components)


@given(net=small_networks())
def test_paths_match_brute_force_enumeration(net):
    source, sink = net.terminals[0]
    paths = brute_force_paths(net, source, sink)
    assert sorted(map(tuple, _simple_paths(net.edges, source, sink))) == sorted(paths)

    sets = set()
    for path in paths:
        comps = {net.node_components[v] for v in path if v in net.node_components}
        comps |= {
            net.edge_components[e] for e in zip(path, path[1:]) if e in net.edge_components
        }
        sets.add(frozenset(comps))
    minimal = [s for s in sets if not any(other < s for other in sets)]
    assert minimal_paths(net, 0) == sorted(minimal, key=lambda s: (len(s), sorted(s)))


def grid_net(k):
    """k x k grid, edges both ways, one component per node."""
    nodes = [f"{r},{c}" for r in range(k) for c in range(k)]
    edges = []
    for r in range(k):
        for c in range(k):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr < k and c + dc < k:
                    u, v = f"{r},{c}", f"{r + dr},{c + dc}"
                    edges += [(u, v), (v, u)]
    corner = (nodes[0], nodes[-1])
    return simple_net(nodes, edges, [corner], {v: i for i, v in enumerate(nodes)})


def test_path_enumeration_is_capped(monkeypatch):
    # 12 corner-to-corner simple paths, found in 50 extensions of a partial
    # path: 12 onto the sink and 38 onto inner nodes
    net = grid_net(3)
    monkeypatch.setattr(network, "MAX_SIMPLE_PATHS", 50)
    assert len(list(_simple_paths(net.edges, *net.terminals[0]))) == 12
    monkeypatch.setattr(network, "MAX_SIMPLE_PATHS", 49)
    with pytest.raises(CapExceeded):
        minimal_paths(net, 0)


def test_path_cap_counts_dead_ends(monkeypatch):
    # the sink hangs off the corner alone, so the one path is found at once
    # and the search then walks 153,744 partial paths that lead nowhere; the
    # cap must stop that walk although no second path is ever found
    grid = grid_net(5)
    net = simple_net(
        (*grid.nodes, "sink"),
        (*grid.edges, (grid.nodes[0], "sink")),
        [(grid.nodes[0], "sink")],
        grid.node_components,
    )
    monkeypatch.setattr(network, "MAX_SIMPLE_PATHS", 1000)
    with pytest.raises(CapExceeded):
        minimal_paths(net, 0)


def test_unreachable_sink_is_not_searched():
    # walking every simple path out of a corner of a 6x6 two-way grid takes
    # about a minute; a sink outside the grid must not start that walk
    grid = grid_net(6)
    net = simple_net(
        (*grid.nodes, "sink"),
        grid.edges,
        [(grid.nodes[0], "sink")],
        grid.node_components,
    )
    start = time.perf_counter()
    assert minimal_paths(net, 0) == []
    assert time.perf_counter() - start < 5.0
