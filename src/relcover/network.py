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
        for pair in self.edge_components:
            if pair not in set(self.edges):
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
                str(entry["name"]): int(entry["component"])
                for entry in doc["nodes"]
                if "component" in entry
            }
            edges = tuple(
                (str(entry["from"]), str(entry["to"])) for entry in doc["edges"]
            )
            edge_components = {
                (str(entry["from"]), str(entry["to"])): int(entry["component"])
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
    """
    if source == sink:
        yield [source]
        return
    successors: dict[str, list[str]] = {}
    for u, v in dict.fromkeys(edges):
        successors.setdefault(u, []).append(v)
    path = [source]
    stack = [iter(successors.get(source, ()))]
    while stack:
        for v in stack[-1]:
            if v == sink:
                yield path + [v]
            elif v not in path:
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
