"""Topology of production/annihilation structures.

A Structure is a directed acyclic graph of typed nodes wired through named
ports, with loose edge ends anchored at external terminals on the past or
future side. A Scenario is the same graph read as an experiment: edges
entering from the past are interventions (freely choosable), edges leaving
to the future are observations (read-only), and internal edges are hidden.

Structures and Scenarios are immutable after construction by convention;
no function here mutates its inputs. Each structure object's graph is
walked and checked once (`node_order`), and what is derived from it is
kept on the object itself (`memo`), so a structure must not be mutated
after its first validate, render or search: build a new one instead. A
copy or a pickle round trip starts with nothing derived.

Every reader of a structure's graph (the searches, the brute-force
oracle, path depth, rendering, time reversal) goes through `node_order`,
which refuses a structure that breaks the composition rules with
InvalidStructureError and its full report. Only `validate_topology`
reports the violations instead, and building a Scenario, serializing it
and parsing a document work on any structure.

An endpoint is built by its constructor, `Endpoint(node, port)` or
`Endpoint(terminal=name, side=side)`, and read by unpacking it as
`(node, port, terminal, side)`; it is a terminal exactly when `terminal`
is not None. A file's endpoint is read (`Endpoint.from_json`) straight
into a tuple when it has one of the two well-formed shapes; its location
and error are composed only when not.
"""

from __future__ import annotations

import heapq
from typing import Callable, NamedTuple, Optional

from .model import (
    ANNIHILATION,
    FLAVORS,
    HIDDEN,
    INTERVENTION,
    NODE_KINDS,
    OBSERVATION,
    PRODUCTION,
    InvalidStructureError,
    check_partial,
)

PAST = "past"
FUTURE = "future"

ROLES = (INTERVENTION, OBSERVATION, HIDDEN)

#: valid ports per node kind; productions have one input and two outputs,
#: annihilations two inputs and one output
PORTS: dict[str, tuple[str, ...]] = {
    PRODUCTION: ("in1", "out1", "out2"),
    ANNIHILATION: ("in1", "in2", "out1"),
}
IN_PORTS = ("in1", "in2")
OUT_PORTS = ("out1", "out2")

_MIRROR_PORT = {"in1": "out1", "out1": "in1", "in2": "out2", "out2": "in2"}
_PORT_NAMES = IN_PORTS + OUT_PORTS
#: per end of an edge: its name, the side its terminal must be on, the ports it may use and their name
_ENDS = (("source", PAST, OUT_PORTS, "an out-port"), ("target", FUTURE, IN_PORTS, "an in-port"))
_MIRROR_SIDE = {PAST: FUTURE, FUTURE: PAST}
_FLIP_KIND = {PRODUCTION: ANNIHILATION, ANNIHILATION: PRODUCTION}
_EDGE_FIELDS = {"from", "to"}
_new = tuple.__new__  # builds a NamedTuple from a tuple of every field, without its Python-level __new__


class ParseError(ValueError):
    """Malformed scenario text; the message carries line/field diagnostics."""


class Violation(NamedTuple):
    """One broken structural invariant, naming the offending node or edge."""

    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.code} [{self.subject}]: {self.message}"


class Endpoint(NamedTuple):
    """One end of an edge: either a node port or an external terminal."""

    node: Optional[str] = None
    port: Optional[str] = None
    terminal: Optional[str] = None
    side: Optional[str] = None

    @staticmethod
    def from_json(obj: object, eid: str, end: str) -> "Endpoint":
        """Read the `end` ("from" or "to") of edge `eid` from its JSON form."""
        if isinstance(obj, dict) and len(obj) == 2:  # the well-formed shapes; anything else only picks its error
            port = obj.get("port")
            if port in _PORT_NAMES:
                node = obj.get("node")
                if isinstance(node, str):
                    return _new(Endpoint, (node, port, None, None))
            else:
                side, terminal = obj.get("side"), obj.get("terminal")
                if side in (PAST, FUTURE) and isinstance(terminal, str):
                    return _new(Endpoint, (None, None, terminal, side))
        where = f"edges[{eid!r}].{end}"
        if not isinstance(obj, dict):
            raise ParseError(f"{where}: endpoint must be an object, got {type(obj).__name__}")
        keys = set(obj)
        if keys not in ({"node", "port"}, {"terminal", "side"}):
            raise ParseError(
                f"{where}: endpoint needs keys node/port or terminal/side, got {sorted(keys)}"
            )
        for key in sorted(keys):
            if not isinstance(obj[key], str):
                raise ParseError(f"{where}.{key}: must be a string, got {type(obj[key]).__name__}")
        if "port" in keys:
            raise ParseError(f"{where}: unknown port {obj['port']!r}")
        raise ParseError(f"{where}: side must be '{PAST}' or '{FUTURE}', got {obj['side']!r}")


class Edge(NamedTuple):
    """A directed edge from a source endpoint to a target endpoint."""

    source: Endpoint
    target: Endpoint


class Structure:
    """Typed node map plus directed edge map over ports and terminals.

    Equal when both maps are equal, and unhashable, like the maps."""

    __slots__ = ("nodes", "edges", "_derived")  # `_derived` is read by `memo` only
    __hash__ = None

    def __init__(self, nodes: dict[str, str], edges: dict[str, Edge]) -> None:
        self.nodes = nodes
        self.edges = edges
        self._derived: dict[Callable, object] = {}

    def __reduce__(self) -> tuple:
        return Structure, (self.nodes, self.edges)  # copies and pickles derive afresh

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    def __repr__(self) -> str:
        return f"Structure(nodes={self.nodes!r}, edges={self.edges!r})"


def memo(structure: Structure, build: Callable):
    """`build(structure)`, made on first use and kept on the structure
    under `build`. A build that raises stores nothing."""
    derived = structure._derived
    entry = derived.get(build)
    if entry is None:
        entry = derived[build] = build(structure)
    return entry


class NodeOrder(NamedTuple):
    """The one walk over a structure: its port table, its nodes in
    topological order with their path depths, and its violations. Shared;
    readers must not mutate it."""

    #: sorted edge ids (the solver finds for itself those that touch no node)
    edges: list[str]
    #: node -> port -> edge id
    ports: dict[str, dict[str, str]]
    #: node -> source node of each internal edge entering it
    preds: dict[str, list[str]]
    #: node -> node count of the longest directed path ending there, its keys
    #: the nodes in topological order: among ready nodes the least id goes
    #: first (Kahn); nodes a directed cycle feeds are left off
    depth: dict[str, int]
    #: every broken structural invariant, in report order
    violations: tuple[Violation, ...]


def _walk(structure: Structure) -> NodeOrder:
    """One pass over the sorted edges, one over the sorted nodes, then Kahn.

    Endpoints naming missing nodes are reported and otherwise skipped, so
    the walk is safe to build on a structure that does not validate.
    """
    nodes = structure.nodes
    ports: dict[str, dict[str, str]] = {nid: {} for nid in nodes}
    preds: dict[str, list[str]] = {nid: [] for nid in nodes}
    succ: dict[str, list[str]] = {nid: [] for nid in nodes}
    clash: dict[tuple[str, str], list[str]] = {}  # (node, port) -> every edge using it, if more than one
    edge_v: list[Violation] = []
    link_v: list[Violation] = []
    edges = sorted(structure.edges)
    for eid in edges:
        linked, turned = [], []  # direction faults are reported after both ends' port faults
        for (node, port, terminal, side), (end, end_side, allowed, name) in zip(structure.edges[eid], _ENDS):
            if terminal is not None:
                if side != end_side:
                    turned.append(Violation("bad-direction", eid, f"{end} terminal must be on the {end_side} side"))
                continue
            if port not in allowed:
                turned.append(Violation("bad-direction", eid, f"{end} must be {name}, got {port!r}"))
            table = ports.get(node)
            if table is None:
                edge_v.append(Violation("unknown-node", eid, f"{end} references missing node {node!r}"))
                continue
            if port in table:
                clash.setdefault((node, port), [table[port]]).append(eid)
            table[port] = eid
            linked.append(node)
            kind = nodes[node]
            if kind in PORTS and port not in PORTS[kind]:
                message = f"{end} port {port!r} does not exist on {kind} node {node!r}"
                edge_v.append(Violation("bad-port", eid, message))
        edge_v += turned
        if len(linked) == 2:
            src, dst = linked
            preds[dst].append(src)
            succ[src].append(dst)
            if nodes[src] == nodes[dst]:
                link_v.append(Violation("alternation", eid, f"links two {nodes[src]} nodes ({src} -> {dst})"))

    # node kinds, and every port of every node used exactly once
    kind_v: list[Violation] = []
    port_v: list[Violation] = []
    for nid in sorted(nodes):
        kind = nodes[nid]
        if kind not in PORTS:
            kind_v.append(Violation("bad-kind", nid, f"unknown node kind {kind!r}"))
            continue
        for port in PORTS[kind]:
            if port not in ports[nid]:
                port_v.append(Violation("port-unused", nid, f"port {port!r} has no edge"))
            elif (nid, port) in clash:
                users = ", ".join(clash[nid, port])
                port_v.append(Violation("port-conflict", nid, f"port {port!r} used by edges {users}"))

    indeg = {nid: len(p) for nid, p in preds.items()}
    ready = [nid for nid, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    depth: dict[str, int] = {}
    below = dict.fromkeys(nodes, 0)  # the deepest ordered predecessor so far
    while ready:
        nid = heapq.heappop(ready)
        d = depth[nid] = below[nid] + 1
        for nxt in succ[nid]:
            if below[nxt] < d:
                below[nxt] = d
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(ready, nxt)
    stuck = sorted(nid for nid, d in indeg.items() if d > 0)
    cycle = [Violation("cycle", ",".join(stuck), "directed cycle through these nodes")] if stuck else []
    return NodeOrder(edges, ports, preds, depth, tuple(kind_v + edge_v + port_v + link_v + cycle))


def node_order(structure: Structure) -> NodeOrder:
    """The one walk over a structure's graph, made once per object; the
    solver, its oracle, path depth and rendering all read it.

    Raises InvalidStructureError, carrying the full violation report, for a
    structure that does not validate; the walk is kept all the same, so it
    is made once and every later call raises again.
    """
    walk = memo(structure, _walk)
    if walk.violations:
        raise InvalidStructureError(walk.violations)
    return walk


def validate_topology(structure: Structure) -> list[Violation]:
    """Report every broken structural invariant; empty list iff valid.

    Checks node kinds, port existence, exactly-once port coverage, edge
    direction (sources leave out-ports or the past, targets enter in-ports
    or the future), acyclicity, and the production/annihilation alternation
    rule on internal edges. The list is the caller's own. The one reader
    that reports a violation instead of refusing the structure.
    """
    return list(memo(structure, _walk).violations)


class Scenario(NamedTuple):
    """A structure plus the intervention/observation/hidden reading of it."""

    structure: Structure
    roles: dict[str, str]

    @staticmethod
    def derive(structure: Structure) -> "Scenario":
        """The scenario whose roles, in sorted edge order, follow from each
        edge's anchoring: past terminal -> intervention, future terminal ->
        observation, node-to-node -> hidden.

        A terminal-to-terminal edge is controllable, so it is an
        intervention.
        """
        roles = {}
        for eid in sorted(structure.edges):
            (_, _, source, _), (_, _, target, _) = structure.edges[eid]  # the terminal of each end
            roles[eid] = INTERVENTION if source is not None else OBSERVATION if target is not None else HIDDEN
        return Scenario(structure, roles)


def intervention_edges(scenario: Scenario) -> list[str]:
    return sorted(e for e, r in scenario.roles.items() if r == INTERVENTION)


# --- canonical builders ---


def build_h_cell() -> Scenario:
    """The basic cell: one production feeding two annihilations.

    The production's input comes from the past (`c_in`); its outputs are
    the hidden edges `h_left` and `h_right`. Each annihilation takes one
    hidden edge plus a past-side input (`l_in`, `r_in`) and emits a
    future-side output (`l_out`, `r_out`).
    """
    return build_chain(1)


def build_chain(k: int) -> Scenario:
    """Stack k cells; cell i's right annihilation feeds cell i+1's production.

    The connecting edge (`c_mid.(i+1)`) is internal, so it is hidden, and it
    links an annihilation to a production, preserving alternation. Cell ids
    are suffixed `.i`; k = 1 is exactly the plain cell, without suffixes.
    """
    if k < 1:
        raise ValueError(f"chain needs at least 1 cell, got {k}")
    nodes: dict[str, str] = {}
    edges: dict[str, Edge] = {}
    for i in range(1, k + 1):
        tag = "" if k == 1 else f".{i}"
        prod, ann_l, ann_r = f"prod{tag}", f"ann_l{tag}", f"ann_r{tag}"
        nodes[prod] = PRODUCTION
        nodes[ann_l] = ANNIHILATION
        nodes[ann_r] = ANNIHILATION

        if i == 1:
            edges["c_in"] = Edge(Endpoint(terminal="c_in", side=PAST), Endpoint(prod, "in1"))
        else:
            edges[f"c_mid{tag}"] = Edge(Endpoint(f"ann_r.{i - 1}", "out1"), Endpoint(prod, "in1"))

        edges[f"h_left{tag}"] = Edge(Endpoint(prod, "out1"), Endpoint(ann_l, "in1"))
        edges[f"h_right{tag}"] = Edge(Endpoint(prod, "out2"), Endpoint(ann_r, "in1"))
        edges[f"l_in{tag}"] = Edge(Endpoint(terminal=f"l_in{tag}", side=PAST), Endpoint(ann_l, "in2"))
        edges[f"r_in{tag}"] = Edge(Endpoint(terminal=f"r_in{tag}", side=PAST), Endpoint(ann_r, "in2"))
        edges[f"l_out{tag}"] = Edge(Endpoint(ann_l, "out1"), Endpoint(terminal=f"l_out{tag}", side=FUTURE))
        if i == k:
            edges[f"r_out{tag}"] = Edge(Endpoint(ann_r, "out1"), Endpoint(terminal=f"r_out{tag}", side=FUTURE))

    return Scenario.derive(Structure(nodes, edges))


def reverse_time(scenario: Scenario) -> Scenario:
    """Flip the time axis: swap past/future, node kinds, and edge directions.

    Each port trades places with its mirror (in1 <-> out1, in2 <-> out2),
    so a production read backwards is an annihilation and vice versa.
    Roles are recomputed from the flipped topology. Involutive. Raises
    InvalidStructureError for a structure that does not validate.
    """

    def mirror(ep: Endpoint) -> Endpoint:
        node, port, terminal, side = ep
        if terminal is not None:
            return Endpoint(terminal=terminal, side=_MIRROR_SIDE[side])
        return Endpoint(node, _MIRROR_PORT[port])

    struct = scenario.structure
    node_order(struct)  # refuses, with the report, a structure whose ports, sides or kinds have no mirror
    nodes = {nid: _FLIP_KIND[kind] for nid, kind in struct.nodes.items()}
    edges = {eid: Edge(mirror(e.target), mirror(e.source)) for eid, e in struct.edges.items()}
    return Scenario.derive(Structure(nodes, edges))


# --- file format ---


def _object(entries: list[str]) -> str:
    """A top-level field's JSON object from its rendered `"key": value` entries."""
    return "{\n    " + ",\n    ".join(entries) + "\n  }" if entries else "{}"


def serialize_scenario(scenario: Scenario, assignment: Optional[dict[str, str]] = None) -> str:
    """Serialize to the JSON structure file format, optionally embedding a
    (possibly partial) flavor assignment.

    The text is exactly `json.dumps(document, indent=2, sort_keys=True)`,
    written directly: every id and value is a string, escaped as `json`
    escapes it. Raises ValueError for an assignment that names an edge
    the structure lacks or holds a non-flavor, which no reader would take.
    """
    # json loads with the first file written or read, not with this module,
    # so a caller that only builds structures (the consistency sweep) loads none
    from json.encoder import encode_basestring_ascii as quote

    def strings(mapping: dict[str, str]) -> str:
        return _object([f"{quote(key)}: {quote(mapping[key])}" for key in sorted(mapping)])

    def endpoint(ep: Endpoint) -> str:
        if ep.terminal is not None:
            return f'{{\n        "side": {quote(ep.side)},\n        "terminal": {quote(ep.terminal)}\n      }}'
        return f'{{\n        "node": {quote(ep.node)},\n        "port": {quote(ep.port)}\n      }}'

    edges = scenario.structure.edges
    if assignment is not None:
        check_partial(edges, assignment)
    fields = [] if assignment is None else [("assignment", strings(assignment))]
    fields += [
        ("edges", _object([
            f'{quote(eid)}: {{\n      "from": {endpoint(edges[eid].source)},\n'
            f'      "to": {endpoint(edges[eid].target)}\n    }}'
            for eid in sorted(edges)
        ])),
        ("nodes", strings(scenario.structure.nodes)),
        ("roles", strings(scenario.roles)),
    ]
    return "{\n" + ",\n".join(f'  "{key}": {value}' for key, value in fields) + "\n}"


def parse_scenario_document(text: str) -> tuple[Scenario, Optional[dict[str, str]]]:
    """Parse the structure file format, returning the scenario and the
    embedded assignment if one is present.

    Raises ParseError for malformed text and InvalidStructureError (with the
    full violation report) for well-formed text describing a bad topology.
    """
    import json
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # an integer literal longer than the interpreter converts
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    for key in ("nodes", "edges"):
        if key not in doc:
            raise ParseError(f"missing required field {key!r}")
    unknown = set(doc) - {"nodes", "edges", "roles", "assignment"}
    if unknown:
        raise ParseError(f"unknown top-level fields: {sorted(unknown)}")

    nodes = doc["nodes"]  # the keys of a JSON object are strings
    if not isinstance(nodes, dict):
        raise ParseError("'nodes' must map node ids to kinds")
    for nid, kind in nodes.items():
        if kind not in NODE_KINDS:
            raise ParseError(f"nodes[{nid!r}]: kind must be one of {'/'.join(NODE_KINDS)}, got {kind!r}")

    if not isinstance(doc["edges"], dict):
        raise ParseError("'edges' must map edge ids to endpoint pairs")
    edges: dict[str, Edge] = {}
    read = Endpoint.from_json
    for eid, body in doc["edges"].items():
        if not isinstance(body, dict) or body.keys() != _EDGE_FIELDS:
            raise ParseError(f"edges[{eid!r}]: needs exactly the fields 'from' and 'to'")
        edges[eid] = _new(Edge, (read(body["from"], eid, "from"), read(body["to"], eid, "to")))

    scenario = Scenario.derive(Structure(nodes, edges))
    violations = validate_topology(scenario.structure)

    if "roles" in doc and doc["roles"] != scenario.roles:  # roles equal to the derived ones pass every check below
        declared = doc["roles"]
        if not isinstance(declared, dict):
            raise ParseError("'roles' must map edge ids to roles")
        for eid, role in declared.items():
            if role not in ROLES:
                raise ParseError(f"roles[{eid!r}]: unknown role {role!r}")
            if eid not in edges:
                raise ParseError(f"roles[{eid!r}]: no such edge")
        for eid, given in scenario.roles.items():  # in sorted edge order
            if eid not in declared:
                raise ParseError(f"roles: missing entry for edge {eid!r}")
            if declared[eid] != given:
                message = f"declared {declared[eid]!r} but topology gives {given!r}"
                violations.append(Violation("role-mismatch", eid, message))

    assignment: Optional[dict[str, str]] = None
    if "assignment" in doc:
        if not isinstance(doc["assignment"], dict):
            raise ParseError("'assignment' must map edge ids to flavors")
        assignment = {}
        for eid, flavor in doc["assignment"].items():
            if eid not in edges:
                raise ParseError(f"assignment[{eid!r}]: no such edge")
            if flavor not in FLAVORS:
                raise ParseError(f"assignment[{eid!r}]: unknown flavor {flavor!r}")
            assignment[eid] = flavor

    if violations:
        raise InvalidStructureError(violations)
    return scenario, assignment


def parse_scenario(text: str) -> Scenario:
    """Parse the structure file format to a validated Scenario."""
    scenario, _ = parse_scenario_document(text)
    return scenario


def longest_node_path(structure: Structure) -> int:
    """Node count of the longest directed path through internal edges."""
    return max(node_order(structure).depth.values(), default=0)
