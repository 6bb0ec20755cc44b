"""Door networks: directed graphs whose simple paths become implementations.

A network carries one (source, sink) terminal pair per function.  Nodes map
to component ids; edges may optionally map to components as well, otherwise
a connection is treated as perfectly reliable.  Every simple source-to-sink
path yields the set of components it traverses, and the minimal such sets
(no set containing another) are the function's implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .errors import CapExceeded

# `_simple_paths` refuses to extend partial paths more often than this, so
# the cap bounds the search itself, dead ends included, not only the paths
# found: a 7x7 grid with edges both ways already has 575,780,564
# corner-to-corner simple paths, and a 6x6 one whose sink hangs off the
# corner source alone has one path but 31,811,177 partial paths.
MAX_SIMPLE_PATHS = 1 << 20


def integer_field(value: object, what: str) -> int:
    """A JSON id: an integer, or a float with an integral value; never a bool."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class DoorNetwork:
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    node_components: dict[str, int]
    terminals: tuple[tuple[str, str], ...]
    edge_components: dict[tuple[str, str], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node names")
        known = set(self.nodes)
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at node {u!r}")
            if u not in known or v not in known:
                raise ValueError(f"edge ({u!r}, {v!r}) references unknown nodes")
        for src, sink in self.terminals:
            if src not in known or sink not in known:
                raise ValueError(f"terminal pair ({src!r}, {sink!r}) references unknown nodes")
        for name in self.node_components:
            if name not in known:
                raise ValueError(f"component mapping for unknown node {name!r}")
        edges = set(self.edges)
        for pair in self.edge_components:
            if pair not in edges:
                raise ValueError(f"component mapping for unknown edge {pair!r}")

    def to_dict(self) -> dict:
        nodes = []
        for name in self.nodes:
            entry: dict = {"name": name}
            if name in self.node_components:
                entry["component"] = self.node_components[name]
            nodes.append(entry)
        edges = []
        for u, v in self.edges:
            entry = {"from": u, "to": v}
            if (u, v) in self.edge_components:
                entry["component"] = self.edge_components[(u, v)]
            edges.append(entry)
        return {
            "nodes": nodes,
            "edges": edges,
            "terminals": [{"source": s, "sink": t} for s, t in self.terminals],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "DoorNetwork":
        try:
            nodes = tuple(str(entry["name"]) for entry in doc["nodes"])
            node_components = {
                str(entry["name"]): integer_field(entry["component"], "node component")
                for entry in doc["nodes"]
                if "component" in entry
            }
            edges = tuple(
                (str(entry["from"]), str(entry["to"])) for entry in doc["edges"]
            )
            edge_components = {
                (str(entry["from"]), str(entry["to"])): integer_field(
                    entry["component"], "edge component"
                )
                for entry in doc["edges"]
                if "component" in entry
            }
            terminals = tuple(
                (str(entry["source"]), str(entry["sink"])) for entry in doc["terminals"]
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed network document ({exc})") from exc
        return cls(nodes, edges, node_components, terminals, edge_components)


def _simple_paths(
    edges: tuple[tuple[str, str], ...], source: str, sink: str
) -> Iterator[list[str]]:
    """Every simple source-to-sink path, by iterative depth-first search.

    Duplicate edges count once; source == sink gives the one-node path.
    The search only enters nodes that can reach the sink, so an unreachable
    sink costs one backward pass over the edges.  Every extension of a
    partial path by one edge counts against MAX_SIMPLE_PATHS, whether it
    reaches the sink or later dead-ends, and CapExceeded is raised rather
    than go past the cap.
    """
    if source == sink:
        yield [source]
        return
    unique = dict.fromkeys(edges)
    predecessors: dict[str, list[str]] = {}
    for u, v in unique:
        predecessors.setdefault(v, []).append(u)
    reaches = {sink}
    frontier = [sink]
    while frontier:
        v = frontier.pop()
        for u in predecessors.get(v, ()):
            if u not in reaches:
                reaches.add(u)
                frontier.append(u)
    successors: dict[str, list[str]] = {}
    for u, v in unique:
        if v in reaches:
            successors.setdefault(u, []).append(v)
    path = [source]
    stack = [iter(successors.get(source, ()))]
    extensions = 0
    while stack:
        for v in stack[-1]:
            if v in path:
                continue
            extensions += 1
            if extensions > MAX_SIMPLE_PATHS:
                raise CapExceeded(
                    f"search for simple paths from {source!r} to {sink!r} "
                    f"needs more than {MAX_SIMPLE_PATHS} path extensions"
                )
            if v == sink:
                yield path + [v]
            else:
                path.append(v)
                stack.append(iter(successors.get(v, ())))
                break
        else:
            stack.pop()
            path.pop()


def minimal_paths(net: DoorNetwork, function_index: int) -> list[frozenset[int]]:
    """Minimal component sets over simple source-to-sink paths.

    Returns the component sets of all simple paths for the function's
    terminal pair, with duplicates merged and dominated sets (strict
    supersets of another returned set) removed.  An unreachable sink gives
    an empty list.  Output order is (size, sorted elements), so it is
    deterministic for a given network.
    """
    if not (0 <= function_index < len(net.terminals)):
        raise ValueError(f"no terminal pair for function {function_index}")
    src, sink = net.terminals[function_index]

    seen: set[frozenset[int]] = set()
    for path in _simple_paths(net.edges, src, sink):
        comps = {net.node_components[v] for v in path if v in net.node_components}
        for u, v in zip(path, path[1:]):
            if (u, v) in net.edge_components:
                comps.add(net.edge_components[(u, v)])
        seen.add(frozenset(comps))

    minimal = [s for s in seen if not any(other < s for other in seen)]
    return sorted(minimal, key=lambda s: (len(s), sorted(s)))
