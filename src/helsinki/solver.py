"""Exhaustive enumeration and exact counting of admissible flavor assignments.

Two routes live here on purpose. `complete` is the engine, a depth-first
walk over the compiled layout below. `brute_force_complete` is the
reference: try every total assignment and keep the ones `is_admissible`
accepts. The pruning in the engine is an optimization only; both routes
must return exactly the same solutions, and the test suite holds them to
that.

An assignment is admissible when every node's three incident flavors are
all equal or all distinct, and no internal edge links two homogeneous
nodes. Solutions are reported in a canonical order: sorted by the tuple of
flavors read along ascending edge ids. Empty solution lists are ordinary
results, never errors.

Each structure object is compiled once, from `structure.node_order`, into
one layout, kept on the object (`structure.memo`), so a structure must not
be mutated after its first search, and a copy starts with nothing derived.
The layout takes the nodes one at a time in an order that keeps the
frontier narrow (bucket elimination; a transfer matrix on chains). The
frontier is the live edges, those between the nodes taken so far and the
rest, each with the value its taken node gave it: the edge's flavor,
marked when that node is homogeneous, so the other node reads its ban off
the edge. Per node the layout keeps a moves table: (frontier + the node's
pins) -> the node's admissible fillings, each with the frontier it leads
to. Entries are made on first use, and one table serves every node, of
any structure, that is read alike. The steps name each node's edges by
id, and every search reads its pins from one dict, a copy of the
layout's blank assignment in sorted edge order. All four searches read
those tables. `complete` and `has_completion` walk them depth-first with
an explicit stack of open branch points, so no recursion limit bounds the
depth, and write each filling into that same pin dict once every pin is
read; each solution of `complete` is a copy of it. A branch point
left without a solution marks its (node, frontier) dead, and no later
path enters it again, so a dead end costs once. `explored`
counts the moves the walk examines. `count_completions` never enumerates:
it keeps, per frontier, the number of partial assignments reaching it, so
the count is exact and its time is linear in the number of nodes times
the frontier size. `least_stranding_input` runs the same tables over sets
of frontiers, each with the least choice of some edges reaching it, to
find the least choice that leaves no completion in one pass. Structures
are assumed to satisfy `validate_topology`; builders and the file parser
only hand over valid ones.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from operator import itemgetter
from typing import Callable, Collection, NamedTuple, Optional, Sequence

from .model import FLAVORS, Assignment, node_admissible
from .structure import Structure, check_partial, memo, node_order


class SolveResult(NamedTuple):
    """Canonically ordered solutions plus a search-effort counter.

    `explored` counts the moves a full search examines: every admissible
    filling of each node it reaches, given the values before it; it is
    deterministic for a given structure and partial.
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


#: a node's admissible (flavor, flavor, flavor, homogeneous), in any port order
_FILLINGS = tuple((*t, len(set(t)) == 1) for t in itertools.product(FLAVORS, repeat=3) if node_admissible(t))

#: the values a filling gives the node's edges: its flavors, lower-cased
#: when the node is homogeneous, so that a neighbour reads the ban off the
#: edge. Pins are flavors and never lower case.
_GIVES = {f: tuple(v.lower() if f[3] else v for v in f[:3]) for f in _FILLINGS}


class _Moves(dict):
    """(frontier + the pins of a node's edges) -> the node's admissible
    (filling, next frontier) pairs; a filling is one of `_FILLINGS` over
    its edges. A frontier value is what a counted node gave a live edge
    (`_GIVES`), so a node may not be homogeneous when one of its edges
    reads lower case. Each entry is made on first use, so two threads at
    worst make one twice."""

    __slots__ = ("reads", "project")

    def __init__(self, reads: tuple[int, ...], project: tuple[int, ...]) -> None:
        #: where the key holds each of the node's edges: in the frontier, else its pin
        self.reads = reads
        #: the next frontier, as indices into (the key + the values the filling gives its edges)
        self.project = project

    def __missing__(self, key: tuple) -> tuple[tuple[tuple, tuple], ...]:
        known = [key[j] for j in self.reads]
        banned = any(v is not None and v.islower() for v in known)
        a, b, c = (v and v.upper() for v in known)
        moves = self[key] = tuple(
            (f, tuple((key + _GIVES[f])[j] for j in self.project))
            for f in _FILLINGS
            if a in (None, f[0]) and b in (None, f[1]) and c in (None, f[2]) and not (banned and f[3])
        )
        return moves


class _Layout(NamedTuple):
    """A structure's one compiled form: its nodes as steps over its edge ids."""

    #: every edge id, in sorted order, to None: the running assignment of
    #: one search is a copy, so it holds its keys in sorted edge order
    blank: dict[str, None]
    #: per node, in narrow order: its edge ids, a getter for their pins,
    #: and its moves table (one table for the nodes read alike)
    steps: tuple[tuple[tuple[str, ...], Callable[[dict], tuple], _Moves], ...]
    #: edges no node reads, a factor of 3 each unless pinned
    loose: tuple[str, ...]


#: the one moves table of a (reads, project) pattern, kept for the life of
#: the process. Patterns index the key, not the structure, so the cells of a
#: chain, and every chain, share the same few tables.
_moves = functools.lru_cache(maxsize=None)(_Moves)


def _compile(structure: Structure) -> _Layout:
    """The frontier layout, straight from `structure.node_order`.

    Nodes are counted one at a time, each next the one with the most edges
    to counted nodes (ties in topological order), so a chain is counted
    cell by cell in either direction. The frontier holds the live edges,
    those between counted and uncounted nodes, each with the value its
    counted node gave it. A node reads its edges (from the frontier, else
    the pins), appends a filling and projects onto what stays live: the
    frontier edges it did not read and its own edges to uncounted nodes.
    The node rule and the ban are symmetric, so the order need not be
    topological: it is chosen to keep the frontier narrow.
    """
    walk = node_order(structure)
    if len(walk.order) < len(structure.nodes):
        raise ValueError("structure contains a directed cycle; validate it first")
    edges = [tuple(walk.ports[nid].values()) for nid in walk.order]
    touching: dict[str, list[int]] = {}
    for k, incident in enumerate(edges):
        for e in incident:
            touching.setdefault(e, []).append(k)

    links: list[Optional[int]] = [0] * len(edges)  # edges to counted nodes; None once counted
    heap = [(0, k) for k in range(len(edges))]
    frontier: list[str] = []
    steps = []
    while heap:
        negative, k = heapq.heappop(heap)
        if links[k] != -negative:
            continue  # counted already, or a stale entry
        links[k] = None
        incident = edges[k]
        # the key is (frontier + the pins of its edges): an edge not in the frontier reads its pin
        reads = tuple(frontier.index(e) if e in frontier else len(frontier) + i for i, e in enumerate(incident))
        project = [j for j, e in enumerate(frontier) if e not in incident]
        live = [frontier[j] for j in project]
        for i, e in enumerate(incident):
            uncounted = [m for m in touching[e] if links[m] is not None]
            if uncounted:
                # past the frontier, skip the 3 pins to the value given
                project.append(len(frontier) + 3 + i)
                live.append(e)
            for m in uncounted:
                links[m] += 1
                heapq.heappush(heap, (-links[m], m))
        steps.append((incident, itemgetter(*incident), _moves(reads, tuple(project))))
        frontier = live
    return _Layout(dict.fromkeys(walk.edges), tuple(steps), tuple(walk.loose))


def _pins(layout: _Layout, partial: Assignment) -> dict[str, Optional[str]]:
    """The partial as a flavor (or None) per edge id, in sorted edge order,
    checked against the layout's edges in the same pass; a bad entry hands
    the whole partial to `check_partial`, which names every bad entry."""
    pin = layout.blank.copy()
    for eid, flavor in partial.items():
        if eid not in pin or flavor not in FLAVORS:
            check_partial(pin, partial)
        pin[eid] = flavor
    return pin


def _walk(steps: Sequence[tuple], pin: dict[str, Optional[str]], limit: Optional[int] = None) -> tuple[list, int]:
    """Depth-first over a layout's moves: the solutions (copies of `pin`,
    at most `limit`, unsorted) and the moves examined.

    `pin` is also the running assignment: each step writes its filling into
    it at its edges. That is sound only because every step's pins are read
    (`keys`) before the first write. Only a step with a choice opens a
    branch point. One closed without a solution marks its (step, frontier)
    dead: the frontier alone decides what the later steps admit, so no
    later path enters it again.
    """
    end = len(steps)
    keys = [pins_of(pin) for _, pins_of, _ in steps]
    stack: list[tuple] = []  # open branch points: (step, frontier, moves, next to try, solutions before)
    dead: set[tuple[int, tuple]] = set()
    solutions: list = []
    explored = s = 0
    frontier: tuple = ()

    while True:
        while s < end:
            (a, b, c), _, table = steps[s]
            moves = table[frontier + keys[s]]
            n = len(moves)
            explored += n
            if n != 1:
                if not n or dead and (s, frontier) in dead:
                    break
                stack.append((s, frontier, moves, 1, len(solutions)))
            (pin[a], pin[b], pin[c], _), frontier = moves[0]
            s += 1
        else:
            solutions.append(pin.copy())
            if len(solutions) == limit:
                break
        # a solution or a dead end: resume at the latest open branch point
        while stack:
            s, entered, moves, k, before = stack.pop()
            if k < len(moves):
                stack.append((s, entered, moves, k + 1, before))
                break
            if len(solutions) == before:
                dead.add((s, entered))
        else:
            break
        (a, b, c), _, _ = steps[s]
        (pin[a], pin[b], pin[c], _), frontier = moves[k]
        s += 1

    return solutions, explored


def complete(structure: Structure, partial: Assignment) -> SolveResult:
    """Every total admissible assignment extending `partial`, in canonical
    order, each a fresh dict (a copy of the walk's running assignment) with
    its keys in sorted edge order. Exhaustive; an empty list means the
    inputs admit nothing."""
    layout = memo(structure, _compile)
    pin = _pins(layout, partial)
    solutions, explored = _walk(layout.steps, pin)
    for e in layout.loose:
        if pin[e] is None:  # no step writes a loose edge
            solutions = [{**s, e: f} for s in solutions for f in FLAVORS]
    # the values run in sorted edge order, so this is the canonical order;
    # each is a one-character flavor, so the joined string orders as the
    # tuple of values does, and is cheaper to build and to compare
    solutions.sort(key=lambda s: "".join(s.values()))
    return SolveResult(solutions, explored)


def has_completion(structure: Structure, partial: Assignment) -> bool:
    """Whether at least one admissible completion exists (early exit)."""
    layout = memo(structure, _compile)
    solutions, _ = _walk(layout.steps, _pins(layout, partial), limit=1)
    return bool(solutions)


def count_completions(structure: Structure, partial: Assignment) -> int:
    """len(complete(...).solutions), exactly, without enumerating.

    A dynamic program over the layout (bucket elimination; a transfer
    matrix on chains): a table maps each frontier, the values that link
    counted nodes to the rest, to the number of partial assignments
    reaching it. Each node extends every frontier by its moves and sums
    the counts that reach the same next frontier, so time is linear in the
    number of nodes times the frontier size.
    """
    layout = memo(structure, _compile)
    pin = _pins(layout, partial)
    table: dict[tuple, int] = {(): 1}
    for _, pins_of, moves in layout.steps:
        pins = pins_of(pin)
        reached: dict[tuple, int] = {}
        for state, n in table.items():
            for _, key in moves[state + pins]:
                reached[key] = reached.get(key, 0) + n
        table = reached
    total = sum(table.values())
    for e in layout.loose:
        if pin[e] is None:
            total *= 3
    return total


def least_stranding_input(structure: Structure, partial: Assignment, forall: Collection[str]) -> Optional[Assignment]:
    """The least choice of the `forall` edges that, extending `partial`, has no completion, else None.

    Choices rank as base-3 numbers over the sorted `forall` edges, A < B < C, the first edge most
    significant; one pinned in `partial` keeps its pin. The layout runs over members, each the
    frontier states some choices of the `forall` edges read so far reach, kept with the least
    rank among them (unread edges at A); a node reading one first splits each member in three.
    Choices reaching the same member have the same futures and keep their order in any common
    extension, so the larger can go. An empty member records its rank; none above it is kept."""
    layout = memo(structure, _compile)
    pin = _pins(layout, {**dict.fromkeys(forall, FLAVORS[0]), **partial})
    chosen = sorted(set(forall))  # edge ids only, now that the pins are checked
    free = [e for e in chosen if e not in partial]
    weight = {e: 3 ** (len(free) - 1 - j) for j, e in enumerate(free)}
    unread = dict(weight)
    members, least = {frozenset({()}): 0}, 3 ** len(free)  # above every rank: none found yet
    for incident, _, moves in layout.steps:
        options = [[(f, k * unread[e]) for k, f in enumerate(FLAVORS)] if e in unread else [(pin[e], 0)]
                   for e in incident]
        for e in incident:
            unread.pop(e, None)  # later reads find the choice in the frontier
        choices = [(tuple(f for f, _ in c), sum(r for _, r in c)) for c in itertools.product(*options)]
        reached: dict[frozenset, int] = {}
        for member, rank in members.items():
            for pins, offset in choices:
                if (r := rank + offset) < least:
                    key = frozenset(after for state in member for _, after in moves[state + pins])
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
