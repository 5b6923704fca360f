"""Exhaustive enumeration and exact counting of admissible flavor assignments.

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

Each structure object is compiled once, from `structure.node_order`, into
a plan of integer steps over its sorted edges; the plan is kept on the
object (`structure.memo`), so a structure must not be mutated after its
first search, and a copy starts with nothing derived. `complete` and
`has_completion` loop over the plan depth-first with an explicit stack of
open branch points, so no recursion limit bounds its depth; `explored`
counts the candidates a full search examines. `count_completions` never
enumerates: it is a frontier dynamic program over the plan's nodes (bucket
elimination; a transfer matrix on chains), whose layout is compiled on the
first count and kept on the object beside the plan. It keeps, per frontier
of values that link counted nodes to the rest, the number of partial
assignments reaching it, so the count is exact and its time is linear in
the number of nodes times the frontier size. `least_stranding_input`
runs the same layout over sets of frontiers, each with the least choice
of some edges reaching it, to find the least choice that leaves no
completion in one pass. Structures are assumed to satisfy
`validate_topology`; builders and the file parser only hand over valid ones.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from operator import itemgetter
from typing import Callable, Collection, NamedTuple, Optional, Sequence

from .model import FLAVORS, PRODUCTION, Assignment, annihilation_output, node_admissible, production_completions
from .structure import IN_PORTS, OUT_PORTS, Structure, check_partial, memo, node_order


class SolveResult(NamedTuple):
    """Canonically ordered solutions plus a search-effort counter.

    `explored` counts the candidate values a full search examines: three
    per free edge or production visited, one per pinned edge or
    annihilation; it is deterministic for a given structure and partial.
    """

    solutions: list[Assignment]
    explored: int


def is_admissible(structure: Structure, assignment: Assignment) -> bool:
    """Check a total assignment against the node and adjacency rules."""
    check_partial(structure.edges, assignment)
    missing = sorted(set(structure.edges) - set(assignment))
    if missing:
        raise ValueError(f"assignment must be total; missing edges: {', '.join(missing)}")

    walk = node_order(structure)
    homogeneous: dict[str, bool] = {}
    for nid, ports in walk.ports.items():
        flavors = [assignment[eid] for eid in ports.values()]
        if not node_admissible(flavors):
            return False
        homogeneous[nid] = len(set(flavors)) == 1

    # the one flavor-dependent adjacency rule: linked nodes may not both be
    # homogeneous
    return not any(homogeneous[src] and homogeneous[dst] for dst, srcs in walk.preds.items() for src in srcs)


_FREE, _PRODUCTION, _ANNIHILATION = 0, 1, 2
#: production input -> (left, right, homogeneous) outputs, the homogeneous one last
_SPLITS = {c: tuple((l, r, False) for l, r in production_completions(c) if l != r) + ((c, c, True),) for c in FLAVORS}
#: annihilation input pair -> (output, homogeneous)
_MERGES = {(a, b): (annihilation_output(a, b), a == b) for a in FLAVORS for b in FLAVORS}


class _Plan:
    __slots__ = ("edge_ids", "index", "steps")

    def __init__(self, edge_ids: list[str], index: dict[str, int], steps: tuple[tuple[int, ...], ...]) -> None:
        self.edge_ids = edge_ids
        self.index = index
        #: (_FREE, edge) | (_PRODUCTION, node, in, out1, out2, pred) |
        #: (_ANNIHILATION, node, in1, in2, out, pred1, pred2); pred -1 is none
        self.steps = steps


def _compile(structure: Structure) -> _Plan:
    """Free past-side edges interleaved with nodes in topological order,
    loose edges last, all as indices into the sorted edges and the order."""
    walk = node_order(structure)
    if len(walk.order) < len(structure.nodes):
        raise ValueError("structure contains a directed cycle; validate it first")
    edge_ids = walk.edges
    index = {eid: i for i, eid in enumerate(edge_ids)}
    position = {nid: k for k, nid in enumerate(walk.order)}
    steps: list[tuple[int, ...]] = []
    for k, nid in enumerate(walk.order):
        port_map = walk.ports[nid]
        ins = [port_map[p] for p in IN_PORTS if p in port_map]
        outs = [index[port_map[p]] for p in OUT_PORTS if p in port_map]
        # inputs fed from a past terminal are free choice points
        steps += [(_FREE, index[eid]) for eid in ins if structure.edges[eid].source.is_terminal]
        # in a topological order the only linked nodes already visited are
        # the predecessors
        preds = [position[n] for n in sorted(set(walk.preds[nid]))] + [-1, -1]
        if structure.nodes[nid] == PRODUCTION:
            steps.append((_PRODUCTION, k, index[ins[0]], outs[0], outs[1], preds[0]))
        else:
            steps.append((_ANNIHILATION, k, index[ins[0]], index[ins[1]], outs[0], preds[0], preds[1]))
    steps += [(_FREE, index[eid]) for eid in walk.loose]
    return _Plan(edge_ids, index, tuple(steps))


def _pins(plan: _Plan, partial: Assignment) -> list[Optional[str]]:
    """The partial as a flavor (or None) per edge index, checked against
    the plan's edge index in the same pass; a bad entry hands the whole
    partial to `check_partial`, which names every bad entry."""
    index = plan.index
    pin: list[Optional[str]] = [None] * len(plan.edge_ids)
    for eid, flavor in partial.items():
        i = index.get(eid)
        if i is None or flavor not in FLAVORS:
            check_partial(index, partial)
        pin[i] = flavor
    return pin


def _search(plan: _Plan, pin: list[Optional[str]], limit: Optional[int] = None) -> tuple[list[tuple], int]:
    """Depth-first over the plan: the solutions (flavor tuples in edge
    order, unsorted, at most `limit`) and the candidates examined."""
    steps = plan.steps
    end = len(steps)
    values: list[Optional[str]] = [None] * len(pin)
    homogeneous = [False] * (end + 1)  # [-1], no node, stays False
    stack: list[tuple[int, tuple, int]] = []  # (step, its options, next to try)
    solutions: list[tuple] = []
    explored = i = 0

    while True:
        if i == end:
            solutions.append(tuple(values))
            if len(solutions) == limit:
                break
        elif (step := steps[i])[0] == _FREE:
            flavor = pin[step[1]]
            if flavor is None:
                explored += 3
                stack.append((i, FLAVORS, 1))
                flavor = FLAVORS[0]
            else:
                explored += 1
            values[step[1]] = flavor
            i += 1
            continue
        elif step[0] == _PRODUCTION:
            _, node, center, left, right, pred = step
            explored += 3
            options = _SPLITS[values[center]]
            if homogeneous[pred]:
                options = options[:2]  # no homogeneous node next to another
            if pin[left] is not None or pin[right] is not None:
                options = tuple(o for o in options if pin[left] in (None, o[0]) and pin[right] in (None, o[1]))
            if options:
                if len(options) > 1:
                    stack.append((i, options, 1))
                values[left], values[right], homogeneous[node] = options[0]
                i += 1
                continue
        else:
            _, node, in1, in2, out, pred1, pred2 = step
            explored += 1
            flavor, hom = _MERGES[values[in1], values[in2]]
            if pin[out] in (None, flavor) and not (hom and (homogeneous[pred1] or homogeneous[pred2])):
                values[out], homogeneous[node] = flavor, hom
                i += 1
                continue
        # a solution or a dead end: resume at the latest open branch point
        if not stack:
            break
        i, options, k = stack.pop()
        if k + 1 < len(options):
            stack.append((i, options, k + 1))
        step = steps[i]
        if step[0] == _FREE:
            values[step[1]] = options[k]
        else:
            values[step[3]], values[step[4]], homogeneous[step[1]] = options[k]
        i += 1

    return solutions, explored


def complete(structure: Structure, partial: Assignment) -> SolveResult:
    """Every total admissible assignment extending `partial`, in canonical
    order. Exhaustive; an empty list means the inputs admit nothing."""
    plan = memo(structure, _compile)
    solutions, explored = _search(plan, _pins(plan, partial))
    solutions.sort()
    return SolveResult([dict(zip(plan.edge_ids, s)) for s in solutions], explored)


def has_completion(structure: Structure, partial: Assignment) -> bool:
    """Whether at least one admissible completion exists (early exit)."""
    plan = memo(structure, _compile)
    solutions, _ = _search(plan, _pins(plan, partial), limit=1)
    return bool(solutions)


def _getter(indices: tuple[int, ...]) -> Callable[[Sequence], tuple]:
    """The entries at `indices` as a tuple. Never one index: a node reads
    its three edges, and a live edge keeps its counted node's flag live."""
    return itemgetter(*indices) if indices else lambda values: ()


#: a node's admissible (flavor, flavor, flavor, homogeneous), in any port order
_ALL_FILLINGS = tuple((*t, len(set(t)) == 1) for t in itertools.product(FLAVORS, repeat=3) if node_admissible(t))


class _Fillings(dict):
    """(known flavor or None per edge of a node, then the homogeneous flags
    of its counted neighbours) -> the node's admissible fillings; each
    entry is made on first use."""

    def __missing__(self, key: tuple) -> tuple[tuple, ...]:
        known, banned = key[:3], any(key[3:])
        fillings = self[key] = tuple(
            f for f in _ALL_FILLINGS if all(k in (None, v) for k, v in zip(known, f)) and not (banned and f[3])
        )
        return fillings


_FILLINGS = _Fillings()


def _narrow_order(edges: dict[int, tuple[int, ...]], touching: dict[int, list[int]]) -> list[int]:
    """Nodes, each next the one with the most edges to counted nodes (ties
    in plan order): a chain is counted cell by cell in either direction."""
    links: dict[int, Optional[int]] = dict.fromkeys(edges, 0)
    heap = [(0, k) for k in edges]
    order: list[int] = []
    while heap:
        negative, k = heapq.heappop(heap)
        if links[k] != -negative:
            continue  # counted already, or a stale entry
        links[k] = None
        order.append(k)
        for m in (m for e in edges[k] for m in touching[e] if links[m] is not None):
            links[m] += 1
            heapq.heappush(heap, (-links[m], m))
    return order


def _compile_counter(structure: Structure) -> tuple[tuple[tuple[Callable, ...], ...], tuple[int, ...]]:
    """The frontier layout for `count_completions`: per counted node,
    getters for the pins of its three edges, for what it reads from
    (frontier + those pins) and for the next frontier from (frontier + its
    filling); then the edges no node reads, a factor of 3 each unless pinned.

    Nodes are counted one at a time; the frontier holds what links counted
    nodes to uncounted ones: the flavor of each edge between them and the
    homogeneous flag of each counted node with an uncounted neighbour. A
    node reads its edges' flavors (from the frontier, else the pins) and
    its counted neighbours' flags, appends a filling and projects onto
    what stays live. The node rule and the ban are symmetric, so the order
    need not be topological: it is chosen to keep the frontier narrow.
    """
    plan = memo(structure, _compile)
    edges = {step[1]: step[2:5] for step in plan.steps if step[0] != _FREE}
    touching: dict[int, list[int]] = {}
    for k, incident in edges.items():
        for e in incident:
            touching.setdefault(e, []).append(k)
    order = _narrow_order(edges, touching)
    position = {k: s for s, k in enumerate(order)}
    # a frontier value is an edge index, or ~k for node k's flag; the last
    # step that reads it
    last = {e: max(position[k] for k in ks) for e, ks in touching.items()}
    last.update({~k: max(last[e] for e in incident) for k, incident in edges.items()})

    getter = functools.lru_cache(maxsize=None)(_getter)  # the same few patterns repeat cell after cell
    frontier: list[int] = []
    steps = []
    for s, k in enumerate(order):
        incident = edges[k]
        # (frontier + the pins of its edges) and (frontier + a filling)
        # line up: an edge not in the frontier reads its pin
        after = frontier + list(incident) + [~k]
        reads = [after.index(e) for e in incident]
        reads += sorted({after.index(~m) for e in incident for m in touching[e] if position[m] < s})
        keep = tuple(j for j, value in enumerate(after) if last[value] > s)
        steps.append((getter(incident), getter(tuple(reads)), getter(keep)))
        frontier = [after[j] for j in keep]
    loose = tuple(step[1] for step in plan.steps if step[0] == _FREE and step[1] not in touching)
    return tuple(steps), loose


def count_completions(structure: Structure, partial: Assignment) -> int:
    """len(complete(...).solutions), exactly, without enumerating.

    A dynamic program over the plan's nodes (bucket elimination; a
    transfer matrix on chains): a table maps each frontier, the values
    that link counted nodes to the rest, to the number of partial
    assignments reaching it. Each node extends every frontier by its
    admissible fillings and sums the counts that project alike, so time is
    linear in the number of nodes times the frontier size.
    """
    pin = _pins(memo(structure, _compile), partial)
    steps, loose = memo(structure, _compile_counter)
    table: dict[tuple, int] = {(): 1}
    for pins_of, reads, project in steps:
        pins = pins_of(pin)
        reached: dict[tuple, int] = {}
        for state, n in table.items():
            for filling in _FILLINGS[reads(state + pins)]:
                key = project(state + filling)
                reached[key] = reached.get(key, 0) + n
        table = reached
    total = sum(table.values())
    for e in loose:
        if pin[e] is None:
            total *= 3
    return total


def least_stranding_input(structure: Structure, partial: Assignment, forall: Collection[str]) -> Optional[Assignment]:
    """The least choice of the `forall` edges that, extending `partial`, has no completion, else None.

    Choices rank as base-3 numbers over the sorted `forall` edges, A < B < C, the first edge most
    significant; one pinned in `partial` keeps its pin. The counting layout runs over members, each
    the frontier states some choices of the `forall` edges read so far reach, kept with the least
    rank among them (unread edges at A); a node reading one first splits each member in three.
    Choices reaching the same member have the same futures and keep their order in any common
    extension, so the larger can go. An empty member records its rank; none above it is kept."""
    plan = memo(structure, _compile)
    chosen = sorted(set(forall))
    pin = _pins(plan, {**dict.fromkeys(chosen, FLAVORS[0]), **partial})
    free = [e for e in chosen if e not in partial]
    weight = {e: 3 ** (len(free) - 1 - j) for j, e in enumerate(free)}
    unread, positions = {plan.index[e]: w for e, w in weight.items()}, range(len(pin))
    members, least = {frozenset({()}): 0}, 3 ** len(free)  # above every rank: none found yet
    for pins_of, reads, project in memo(structure, _compile_counter)[0]:
        incident = pins_of(positions)  # the node's edge indices
        options = [[(f, k * unread[e]) for k, f in enumerate(FLAVORS)] if e in unread else [(pin[e], 0)]
                   for e in incident]
        for e in incident:
            unread.pop(e, None)  # later reads find the choice in the frontier
        choices = [(tuple(f for f, _ in c), sum(r for _, r in c)) for c in itertools.product(*options)]
        reached: dict[frozenset, int] = {}
        for member, rank in members.items():
            for pins, offset in choices:
                if (r := rank + offset) < least:
                    key = frozenset(project(state + f) for state in member for f in _FILLINGS[reads(state + pins)])
                    if not key:
                        least = r
                    elif r < reached.get(key, least):
                        reached[key] = r
        members = reached
    if least == 3 ** len(free):
        return None
    return {e: partial[e] if e in partial else FLAVORS[least // weight[e] % 3] for e in chosen}


def brute_force_complete(structure: Structure, partial: Assignment) -> list[Assignment]:
    """Reference route: enumerate all 3^|edges| total assignments and keep
    the admissible ones extending `partial`.

    Output is in the same canonical order as `complete`. Index tables are
    precomputed for speed, but every candidate is still visited.
    """
    check_partial(structure.edges, partial)
    walk = node_order(structure)
    edge_ids = walk.edges
    index = {eid: i for i, eid in enumerate(edge_ids)}

    node_triples = [(nid, tuple(index[eid] for eid in walk.ports[nid].values())) for nid in sorted(structure.nodes)]
    adjacency = [(src, dst) for dst, srcs in walk.preds.items() for src in srcs]
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
