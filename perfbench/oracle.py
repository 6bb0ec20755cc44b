"""Exact references computed without relcover's evaluators.

Every float reliability is a dyadic rational, so `Fraction(x)` is exact and
the reliability of the stored system is an exact rational.  It is computed
here by pivotal (Shannon) decomposition on components,
R = a_c R[c works] + (1 - a_c) R[c fails], splitting functions that share no
component into independent factors and memoising repeated subproblems.  That
is a different algorithm from both of relcover's exact routes, so agreement
is evidence rather than repetition.
"""

from __future__ import annotations

from fractions import Fraction

# A reduced problem: each function is the frozenset of its minimal
# implementation masks; the system works when every function has a mask
# whose components all work.
Problem = frozenset  # of frozenset[int]


def _reduce(functions) -> Problem:
    out = set()
    for masks in functions:
        if 0 in masks:
            continue  # an implementation with no unknown component: works
        minimal: list[int] = []
        for m in sorted(set(masks), key=int.bit_count):
            if not any(k & m == k for k in minimal):
                minimal.append(m)
        out.add(frozenset(minimal))
    return frozenset(out)


def _independent_groups(problem: Problem) -> list[Problem]:
    # Groups keep pairwise disjoint component masks, so a new function only
    # has to be merged with the groups its own components touch.
    groups: list[tuple[int, list]] = []
    for function in problem:
        own = 0
        for m in function:
            own |= m
        reach, members, rest = own, [function], []
        for group_reach, group in groups:
            if group_reach & own:
                reach |= group_reach
                members += group
            else:
                rest.append((group_reach, group))
        groups = rest + [(reach, members)]
    return [frozenset(group) for _, group in groups]


def exact_reliability(masks: list[list[int]], reliabilities: list[float]) -> Fraction:
    """P(every function has a fully working implementation), exactly."""
    probs = [Fraction(r) for r in reliabilities]
    memo: dict[Problem, Fraction] = {}

    def solve(problem: Problem) -> Fraction:
        if not problem:
            return Fraction(1)
        if frozenset() in problem:
            return Fraction(0)
        hit = memo.get(problem)
        if hit is not None:
            return hit
        groups = _independent_groups(problem)
        if len(groups) > 1:
            result = Fraction(1)
            for group in groups:
                result *= solve(group)
        else:
            counts: dict[int, int] = {}
            for function in problem:
                for m in function:
                    while m:
                        low = m & -m
                        counts[low] = counts.get(low, 0) + 1
                        m ^= low
            bit = max(counts, key=lambda b: (counts[b], -b))
            p = probs[bit.bit_length() - 1]
            works = _reduce([m & ~bit for m in f] for f in problem)
            fails = _reduce([m for m in f if not m & bit] for f in problem)
            result = p * solve(works) + (1 - p) * solve(fails)
        memo[problem] = result
        return result

    return solve(_reduce(masks))


def exact_pairwise_sums(masks: list[int], reliabilities: list[float]) -> tuple[Fraction, Fraction]:
    """S1 = sum P(E_j) and S2 = sum_{i<j} P(E_i and E_j) for one function."""
    probs = [Fraction(r) for r in reliabilities]

    def product(mask: int) -> Fraction:
        p = Fraction(1)
        for c, q in enumerate(probs):
            if mask >> c & 1:
                p *= q
        return p

    s1 = sum((product(m) for m in masks), Fraction(0))
    s2 = sum(
        (product(masks[i] | masks[j]) for i in range(len(masks)) for j in range(i + 1, len(masks))),
        Fraction(0),
    )
    return s1, s2


def minimal_path_sets(network: dict, function_index: int) -> list[frozenset[int]]:
    """Minimal component sets over the simple source-to-sink paths of a door
    network document, by depth-first search over the raw JSON."""
    node_comp = {n["name"]: n["component"] for n in network["nodes"] if "component" in n}
    edge_comp = {
        (e["from"], e["to"]): e["component"] for e in network["edges"] if "component" in e
    }
    succ: dict[str, list[str]] = {}
    for e in network["edges"]:
        succ.setdefault(e["from"], []).append(e["to"])
    terminal = network["terminals"][function_index]
    src, sink = terminal["source"], terminal["sink"]

    found: set[frozenset[int]] = set()

    def walk(node: str, path: list[str]) -> None:
        if node == sink:
            comps = {node_comp[v] for v in path if v in node_comp}
            comps |= {edge_comp[e] for e in zip(path, path[1:]) if e in edge_comp}
            found.add(frozenset(comps))
            return
        for nxt in succ.get(node, ()):
            if nxt not in path:
                walk(nxt, path + [nxt])

    walk(src, [src])
    return sorted(
        (s for s in found if not any(other < s for other in found)),
        key=lambda s: (len(s), sorted(s)),
    )
