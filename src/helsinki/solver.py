"""Exhaustive enumeration of admissible flavor assignments.

Two routes live here on purpose. `complete` is the engine: a depth-first
search that walks nodes in topological order and propagates forced values
through annihilations (deterministic output) and productions (three
candidate output pairs). `brute_force_complete` is the reference: try every
total assignment and keep the ones `is_admissible` accepts. The pruning in
the engine is an optimization only; both routes must return exactly the
same solutions, and the test suite holds them to that.

An assignment is admissible when every node's three incident flavors are
all equal or all distinct, and no internal edge links two homogeneous
nodes. Solutions are reported in a canonical order: sorted by the tuple of
flavors read along ascending edge ids. Empty solution lists are ordinary
results, never errors.

The search plan is built from `structure.node_order`, the same walk that
validation and rendering read. Structures are assumed to satisfy
`validate_topology`; builders and the file parser only ever hand over
valid ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .model import FLAVORS, PRODUCTION, annihilation_output, node_admissible, production_completions
from .structure import IN_PORTS, OUT_PORTS, Structure, node_order

Assignment = dict[str, str]


@dataclass
class SolveResult:
    """Canonically ordered solutions plus a search-effort counter.

    `explored` counts candidate branch choices examined during the search;
    it is deterministic for a given structure and partial assignment.
    """

    solutions: list[Assignment]
    explored: int


def _check_partial(structure: Structure, partial: Assignment) -> None:
    unknown = sorted(set(partial) - set(structure.edges))
    if unknown:
        raise ValueError(f"assignment mentions unknown edges: {', '.join(unknown)}")
    bad = sorted(v for v in partial.values() if v not in FLAVORS)
    if bad:
        raise ValueError(f"assignment contains non-flavor values: {', '.join(map(repr, bad))}")


def is_admissible(structure: Structure, assignment: Assignment) -> bool:
    """Check a total assignment against the node and adjacency rules."""
    _check_partial(structure, assignment)
    missing = sorted(set(structure.edges) - set(assignment))
    if missing:
        raise ValueError(f"assignment must be total; missing edges: {', '.join(missing)}")

    homogeneous: dict[str, bool] = {}
    for nid in structure.nodes:
        incident = structure.incident_edges(nid)
        flavors = [assignment[eid] for eid in incident.values()]
        if not node_admissible(flavors):
            return False
        homogeneous[nid] = len(set(flavors)) == 1

    # the one flavor-dependent adjacency rule: linked nodes may not both be
    # homogeneous
    for src, dst, _ in structure.internal_adjacencies():
        if homogeneous[src] and homogeneous[dst]:
            return False
    return True


@dataclass
class _NodeStep:
    node: str
    kind: str
    in_edges: list[str]
    out_edges: list[str]
    earlier_neighbors: list[str]


def _plan(structure: Structure) -> list[object]:
    """Compile the visit order from `node_order`: free past-side edges
    interleaved with nodes in topological order, loose edges last."""
    walk = node_order(structure)
    if walk.stuck:
        raise ValueError("structure contains a directed cycle; validate it first")

    steps: list[object] = []
    for nid in walk.order:
        port_map = walk.ports[nid]
        in_edges = [port_map[p] for p in IN_PORTS if p in port_map]
        out_edges = [port_map[p] for p in OUT_PORTS if p in port_map]
        # inputs fed from a past terminal are free choice points
        steps += [eid for eid in in_edges if structure.edges[eid].source.is_terminal]
        # in a topological order the only linked nodes already visited are
        # the predecessors
        steps.append(_NodeStep(nid, structure.nodes[nid], in_edges, out_edges, sorted(set(walk.preds[nid]))))
    steps.extend(walk.loose)
    return steps


def _search(
    structure: Structure,
    partial: Assignment,
    limit: Optional[int] = None,
    collect: bool = True,
) -> tuple[list[Assignment], int, int]:
    _check_partial(structure, partial)
    steps = _plan(structure)

    values: Assignment = {}
    homogeneous: dict[str, bool] = {}
    solutions: list[Assignment] = []
    count = 0
    explored = 0

    def visit(i: int) -> bool:
        """Returns False to stop the whole search (solution limit hit)."""
        nonlocal count, explored
        if i == len(steps):
            count += 1
            if collect:
                solutions.append(dict(values))
            return limit is None or count < limit

        step = steps[i]
        if isinstance(step, str):
            pinned = partial.get(step)
            for flavor in FLAVORS if pinned is None else (pinned,):
                explored += 1
                values[step] = flavor
                if not visit(i + 1):
                    return False
            del values[step]
            return True

        node = step
        if node.kind == PRODUCTION:
            center = values[node.in_edges[0]]
            left_edge, right_edge = node.out_edges
            for left, right in production_completions(center):
                explored += 1
                if partial.get(left_edge, left) != left or partial.get(right_edge, right) != right:
                    continue
                hom = left == right == center
                if hom and any(homogeneous[n] for n in node.earlier_neighbors):
                    continue
                values[left_edge] = left
                values[right_edge] = right
                homogeneous[node.node] = hom
                if not visit(i + 1):
                    return False
            values.pop(left_edge, None)
            values.pop(right_edge, None)
            homogeneous.pop(node.node, None)
            return True

        in1, in2 = (values[e] for e in node.in_edges)
        out = annihilation_output(in1, in2)
        out_edge = node.out_edges[0]
        explored += 1
        if partial.get(out_edge, out) != out:
            return True
        hom = in1 == in2
        if hom and any(homogeneous[n] for n in node.earlier_neighbors):
            return True
        values[out_edge] = out
        homogeneous[node.node] = hom
        keep_going = visit(i + 1)
        del values[out_edge]
        del homogeneous[node.node]
        return keep_going

    visit(0)
    return solutions, count, explored


def _canonical_key(structure: Structure, assignment: Assignment) -> tuple[str, ...]:
    return tuple(assignment[eid] for eid in structure.edge_ids())


def complete(structure: Structure, partial: Assignment) -> SolveResult:
    """Every total admissible assignment extending `partial`, in canonical
    order. Exhaustive; an empty list means the inputs admit nothing."""
    solutions, _, explored = _search(structure, partial)
    solutions.sort(key=lambda a: _canonical_key(structure, a))
    return SolveResult(solutions, explored)


def count_completions(structure: Structure, partial: Assignment) -> int:
    """len(complete(...).solutions) without materializing the solutions."""
    _, count, _ = _search(structure, partial, collect=False)
    return count


def has_completion(structure: Structure, partial: Assignment) -> bool:
    """Whether at least one admissible completion exists (early exit)."""
    _, count, _ = _search(structure, partial, limit=1, collect=False)
    return count > 0


def brute_force_complete(structure: Structure, partial: Assignment) -> list[Assignment]:
    """Reference route: enumerate all 3^|edges| total assignments and keep
    the admissible ones extending `partial`.

    Output is in the same canonical order as `complete`. Index tables are
    precomputed for speed, but every candidate is still visited.
    """
    _check_partial(structure, partial)
    edge_ids = structure.edge_ids()
    index = {eid: i for i, eid in enumerate(edge_ids)}

    node_triples = []
    for nid in sorted(structure.nodes):
        incident = structure.incident_edges(nid)
        node_triples.append((nid, tuple(index[eid] for eid in incident.values())))
    adjacency = [(src, dst) for src, dst, _ in structure.internal_adjacencies()]
    pins = [(index[eid], flavor) for eid, flavor in sorted(partial.items())]

    survivors: list[Assignment] = []
    for combo in itertools.product(FLAVORS, repeat=len(edge_ids)):
        if any(combo[i] != flavor for i, flavor in pins):
            continue
        ok = True
        homogeneous: dict[str, bool] = {}
        for nid, (i, j, k) in node_triples:
            distinct = len({combo[i], combo[j], combo[k]})
            if distinct == 2:
                ok = False
                break
            homogeneous[nid] = distinct == 1
        if not ok:
            continue
        if any(homogeneous[a] and homogeneous[b] for a, b in adjacency):
            continue
        survivors.append(dict(zip(edge_ids, combo)))
    return survivors
