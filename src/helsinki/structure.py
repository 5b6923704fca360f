"""Topology of production/annihilation structures.

A Structure is a directed acyclic graph of typed nodes wired through named
ports, with loose edge ends anchored at external terminals on the past or
future side. A Scenario is the same graph read as an experiment: edges
entering from the past are interventions (freely choosable), edges leaving
to the future are observations (read-only), and internal edges are hidden.

Structures and Scenarios are immutable after construction by convention;
no function here mutates its inputs.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .model import ANNIHILATION, FLAVORS, NODE_KINDS, PRODUCTION

PAST = "past"
FUTURE = "future"

INTERVENTION = "intervention"
OBSERVATION = "observation"
HIDDEN = "hidden"
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
_MIRROR_SIDE = {PAST: FUTURE, FUTURE: PAST}
_FLIP_KIND = {PRODUCTION: ANNIHILATION, ANNIHILATION: PRODUCTION}


class ParseError(ValueError):
    """Malformed scenario text; the message carries line/field diagnostics."""


@dataclass(frozen=True)
class Violation:
    """One broken structural invariant, naming the offending node or edge."""

    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.code} [{self.subject}]: {self.message}"


class InvalidStructureError(Exception):
    """A structure whose topology violates the composition rules."""

    def __init__(self, violations: list[Violation]):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


@dataclass(frozen=True)
class Endpoint:
    """One end of an edge: either a node port or an external terminal."""

    node: Optional[str] = None
    port: Optional[str] = None
    terminal: Optional[str] = None
    side: Optional[str] = None

    @staticmethod
    def at_port(node: str, port: str) -> "Endpoint":
        return Endpoint(node=node, port=port)

    @staticmethod
    def at_terminal(name: str, side: str) -> "Endpoint":
        return Endpoint(terminal=name, side=side)

    @property
    def is_terminal(self) -> bool:
        return self.terminal is not None

    def to_json(self) -> dict:
        if self.is_terminal:
            return {"terminal": self.terminal, "side": self.side}
        return {"node": self.node, "port": self.port}

    @staticmethod
    def from_json(obj: object, where: str) -> "Endpoint":
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
            if obj["port"] not in _MIRROR_PORT:
                raise ParseError(f"{where}: unknown port {obj['port']!r}")
            return Endpoint.at_port(obj["node"], obj["port"])
        if obj["side"] not in (PAST, FUTURE):
            raise ParseError(f"{where}: side must be '{PAST}' or '{FUTURE}', got {obj['side']!r}")
        return Endpoint.at_terminal(obj["terminal"], obj["side"])


@dataclass
class Edge:
    """A directed edge from a source endpoint to a target endpoint."""

    source: Endpoint
    target: Endpoint


@dataclass
class Structure:
    """Typed node map plus directed edge map over ports and terminals."""

    nodes: dict[str, str]
    edges: dict[str, Edge]

    def edge_ids(self) -> list[str]:
        return sorted(self.edges)

    def incident_edges(self, node_id: str) -> dict[str, str]:
        """Map port -> edge id for every edge touching the node."""
        out: dict[str, str] = {}
        for eid in self.edge_ids():
            edge = self.edges[eid]
            for ep in (edge.source, edge.target):
                if ep.node == node_id:
                    out[ep.port] = eid
        return out

    def internal_adjacencies(self) -> list[tuple[str, str, str]]:
        """(source node, target node, edge id) for every node-to-node edge.

        This is the adjacency relation behind the ban on two linked
        homogeneous nodes; whether a given flavor assignment trips it is
        the solver's business.
        """
        out = []
        for eid in self.edge_ids():
            edge = self.edges[eid]
            if not edge.source.is_terminal and not edge.target.is_terminal:
                out.append((edge.source.node, edge.target.node, eid))
        return out


class NodeOrder(NamedTuple):
    """Port table, predecessors and topological order of a structure."""

    #: node -> port -> edge id
    ports: dict[str, dict[str, str]]
    #: node -> source node of each internal edge entering it
    preds: dict[str, list[str]]
    #: topological order; among ready nodes the least id goes first (Kahn)
    order: list[str]
    #: sorted nodes left off `order` because a directed cycle feeds them
    stuck: list[str]
    #: sorted edges that touch no node
    loose: list[str]


def node_order(structure: Structure) -> NodeOrder:
    """The one walk over a structure's graph, in one pass over its sorted
    edges; validation, the solver plan, path depth and rendering all read it.

    Endpoints naming missing nodes are skipped, so it is safe to build on a
    structure that does not validate.
    """
    ports: dict[str, dict[str, str]] = {nid: {} for nid in structure.nodes}
    preds: dict[str, list[str]] = {nid: [] for nid in structure.nodes}
    succ: dict[str, list[str]] = {nid: [] for nid in structure.nodes}
    loose: list[str] = []
    for eid in structure.edge_ids():
        edge = structure.edges[eid]
        linked = []
        for ep in (edge.source, edge.target):
            if not ep.is_terminal and ep.node in ports:
                ports[ep.node][ep.port] = eid
                linked.append(ep.node)
        if not linked:
            loose.append(eid)
        elif len(linked) == 2:
            src, dst = linked
            preds[dst].append(src)
            succ[src].append(dst)

    indeg = {nid: len(p) for nid, p in preds.items()}
    ready = [nid for nid, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for nxt in succ[nid]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(ready, nxt)
    stuck = sorted(nid for nid, d in indeg.items() if d > 0)
    return NodeOrder(ports, preds, order, stuck, loose)


def node_depths(walk: NodeOrder) -> dict[str, int]:
    """Node count of the longest directed path ending at each ordered node."""
    depth: dict[str, int] = {}
    for nid in walk.order:
        depth[nid] = 1 + max((depth[p] for p in walk.preds[nid]), default=0)
    return depth


def validate_topology(structure: Structure) -> list[Violation]:
    """Report every broken structural invariant; empty list iff valid.

    Checks node kinds, port existence, exactly-once port coverage, edge
    direction (sources leave out-ports or the past, targets enter in-ports
    or the future), acyclicity, and the production/annihilation alternation
    rule on internal edges.
    """
    violations: list[Violation] = []

    for nid in sorted(structure.nodes):
        kind = structure.nodes[nid]
        if kind not in NODE_KINDS:
            violations.append(Violation("bad-kind", nid, f"unknown node kind {kind!r}"))

    # port references and direction
    used: dict[tuple[str, str], list[str]] = {}
    for eid in structure.edge_ids():
        edge = structure.edges[eid]
        for ep, end in ((edge.source, "source"), (edge.target, "target")):
            if ep.is_terminal:
                continue
            if ep.node not in structure.nodes:
                violations.append(Violation("unknown-node", eid, f"{end} references missing node {ep.node!r}"))
                continue
            kind = structure.nodes[ep.node]
            if kind in PORTS and ep.port not in PORTS[kind]:
                violations.append(
                    Violation("bad-port", eid, f"{end} port {ep.port!r} does not exist on {kind} node {ep.node!r}")
                )
                continue
            used.setdefault((ep.node, ep.port), []).append(eid)
        if edge.source.is_terminal:
            if edge.source.side != PAST:
                violations.append(Violation("bad-direction", eid, "source terminal must be on the past side"))
        elif edge.source.port not in OUT_PORTS:
            violations.append(Violation("bad-direction", eid, f"source must be an out-port, got {edge.source.port!r}"))
        if edge.target.is_terminal:
            if edge.target.side != FUTURE:
                violations.append(Violation("bad-direction", eid, "target terminal must be on the future side"))
        elif edge.target.port not in IN_PORTS:
            violations.append(Violation("bad-direction", eid, f"target must be an in-port, got {edge.target.port!r}"))

    # every port of every node used exactly once
    for nid in sorted(structure.nodes):
        kind = structure.nodes[nid]
        if kind not in PORTS:
            continue
        for port in PORTS[kind]:
            users = used.get((nid, port), [])
            if not users:
                violations.append(Violation("port-unused", nid, f"port {port!r} has no edge"))
            elif len(users) > 1:
                violations.append(
                    Violation("port-conflict", nid, f"port {port!r} used by edges {', '.join(sorted(users))}")
                )

    # alternation on internal edges
    for src, dst, eid in structure.internal_adjacencies():
        if src in structure.nodes and dst in structure.nodes:
            if structure.nodes[src] == structure.nodes[dst]:
                violations.append(
                    Violation("alternation", eid, f"links two {structure.nodes[src]} nodes ({src} -> {dst})")
                )

    stuck = node_order(structure).stuck
    if stuck:
        violations.append(Violation("cycle", ",".join(stuck), "directed cycle through these nodes"))

    return violations


def derive_roles(structure: Structure) -> dict[str, str]:
    """Role of each edge from its anchoring: past terminal -> intervention,
    future terminal -> observation, node-to-node -> hidden.

    An edge running terminal-to-terminal is controllable, so it counts as
    an intervention.
    """
    roles = {}
    for eid in structure.edge_ids():
        edge = structure.edges[eid]
        if edge.source.is_terminal:
            roles[eid] = INTERVENTION
        elif edge.target.is_terminal:
            roles[eid] = OBSERVATION
        else:
            roles[eid] = HIDDEN
    return roles


@dataclass
class Scenario:
    """A structure plus the intervention/observation/hidden reading of it."""

    structure: Structure
    roles: dict[str, str] = field(default_factory=dict)

    @staticmethod
    def derive(structure: Structure) -> "Scenario":
        return Scenario(structure, derive_roles(structure))


def intervention_edges(scenario: Scenario) -> list[str]:
    return sorted(e for e, r in scenario.roles.items() if r == INTERVENTION)


def observation_edges(scenario: Scenario) -> list[str]:
    return sorted(e for e, r in scenario.roles.items() if r == OBSERVATION)


def hidden_edges(scenario: Scenario) -> list[str]:
    return sorted(e for e, r in scenario.roles.items() if r == HIDDEN)


# --- canonical builders ---


def build_h_cell() -> Scenario:
    """The basic cell: one production feeding two annihilations.

    The production's input comes from the past (`c_in`); its outputs are
    the hidden edges `h_left` and `h_right`. Each annihilation takes one
    hidden edge plus a past-side input (`l_in`, `r_in`) and emits a
    future-side output (`l_out`, `r_out`).
    """
    nodes = {"prod": PRODUCTION, "ann_l": ANNIHILATION, "ann_r": ANNIHILATION}
    edges = {
        "c_in": Edge(Endpoint.at_terminal("c_in", PAST), Endpoint.at_port("prod", "in1")),
        "h_left": Edge(Endpoint.at_port("prod", "out1"), Endpoint.at_port("ann_l", "in1")),
        "h_right": Edge(Endpoint.at_port("prod", "out2"), Endpoint.at_port("ann_r", "in1")),
        "l_in": Edge(Endpoint.at_terminal("l_in", PAST), Endpoint.at_port("ann_l", "in2")),
        "r_in": Edge(Endpoint.at_terminal("r_in", PAST), Endpoint.at_port("ann_r", "in2")),
        "l_out": Edge(Endpoint.at_port("ann_l", "out1"), Endpoint.at_terminal("l_out", FUTURE)),
        "r_out": Edge(Endpoint.at_port("ann_r", "out1"), Endpoint.at_terminal("r_out", FUTURE)),
    }
    return Scenario.derive(Structure(nodes, edges))


def build_chain(k: int) -> Scenario:
    """Stack k cells; cell i's right annihilation feeds cell i+1's production.

    The connecting edge (`c_mid.(i+1)`) is internal, so it is hidden, and it
    links an annihilation to a production, preserving alternation. Cell ids
    are suffixed `.i`; k = 1 is exactly the plain cell.
    """
    if k < 1:
        raise ValueError(f"chain needs at least 1 cell, got {k}")
    if k == 1:
        return build_h_cell()

    nodes: dict[str, str] = {}
    edges: dict[str, Edge] = {}
    for i in range(1, k + 1):
        prod, ann_l, ann_r = f"prod.{i}", f"ann_l.{i}", f"ann_r.{i}"
        nodes[prod] = PRODUCTION
        nodes[ann_l] = ANNIHILATION
        nodes[ann_r] = ANNIHILATION

        center = "c_in" if i == 1 else f"c_mid.{i}"
        if i == 1:
            edges[center] = Edge(Endpoint.at_terminal("c_in", PAST), Endpoint.at_port(prod, "in1"))
        else:
            edges[center] = Edge(Endpoint.at_port(f"ann_r.{i - 1}", "out1"), Endpoint.at_port(prod, "in1"))

        edges[f"h_left.{i}"] = Edge(Endpoint.at_port(prod, "out1"), Endpoint.at_port(ann_l, "in1"))
        edges[f"h_right.{i}"] = Edge(Endpoint.at_port(prod, "out2"), Endpoint.at_port(ann_r, "in1"))
        edges[f"l_in.{i}"] = Edge(Endpoint.at_terminal(f"l_in.{i}", PAST), Endpoint.at_port(ann_l, "in2"))
        edges[f"r_in.{i}"] = Edge(Endpoint.at_terminal(f"r_in.{i}", PAST), Endpoint.at_port(ann_r, "in2"))
        edges[f"l_out.{i}"] = Edge(Endpoint.at_port(ann_l, "out1"), Endpoint.at_terminal(f"l_out.{i}", FUTURE))
        if i == k:
            edges[f"r_out.{i}"] = Edge(Endpoint.at_port(ann_r, "out1"), Endpoint.at_terminal(f"r_out.{i}", FUTURE))

    return Scenario.derive(Structure(nodes, edges))


def reverse_time(scenario: Scenario) -> Scenario:
    """Flip the time axis: swap past/future, node kinds, and edge directions.

    Each port trades places with its mirror (in1 <-> out1, in2 <-> out2),
    so a production read backwards is an annihilation and vice versa.
    Roles are recomputed from the flipped topology. Involutive.
    """

    def mirror(ep: Endpoint) -> Endpoint:
        if ep.is_terminal:
            return Endpoint.at_terminal(ep.terminal, _MIRROR_SIDE[ep.side])
        return Endpoint.at_port(ep.node, _MIRROR_PORT[ep.port])

    struct = scenario.structure
    nodes = {nid: _FLIP_KIND[kind] for nid, kind in struct.nodes.items()}
    edges = {eid: Edge(mirror(e.target), mirror(e.source)) for eid, e in struct.edges.items()}
    return Scenario.derive(Structure(nodes, edges))


# --- file format ---


def serialize_scenario(scenario: Scenario, assignment: Optional[dict[str, str]] = None) -> str:
    """Serialize to the JSON structure file format, optionally embedding a
    (possibly partial) flavor assignment. Key order is canonical."""
    doc: dict[str, object] = {
        "nodes": {nid: scenario.structure.nodes[nid] for nid in sorted(scenario.structure.nodes)},
        "edges": {
            eid: {"from": edge.source.to_json(), "to": edge.target.to_json()}
            for eid, edge in sorted(scenario.structure.edges.items())
        },
        "roles": {eid: scenario.roles[eid] for eid in sorted(scenario.roles)},
    }
    if assignment is not None:
        doc["assignment"] = {eid: assignment[eid] for eid in sorted(assignment)}
    return json.dumps(doc, indent=2, sort_keys=True)


def parse_scenario_document(text: str) -> tuple[Scenario, Optional[dict[str, str]]]:
    """Parse the structure file format, returning the scenario and the
    embedded assignment if one is present.

    Raises ParseError for malformed text and InvalidStructureError (with the
    full violation report) for well-formed text describing a bad topology.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    for key in ("nodes", "edges"):
        if key not in doc:
            raise ParseError(f"missing required field {key!r}")
    unknown = set(doc) - {"nodes", "edges", "roles", "assignment"}
    if unknown:
        raise ParseError(f"unknown top-level fields: {sorted(unknown)}")

    if not isinstance(doc["nodes"], dict):
        raise ParseError("'nodes' must map node ids to kinds")
    nodes: dict[str, str] = {}
    for nid, kind in doc["nodes"].items():
        if kind not in NODE_KINDS:
            raise ParseError(f"nodes[{nid!r}]: kind must be one of {'/'.join(NODE_KINDS)}, got {kind!r}")
        nodes[str(nid)] = kind

    if not isinstance(doc["edges"], dict):
        raise ParseError("'edges' must map edge ids to endpoint pairs")
    edges: dict[str, Edge] = {}
    for eid, body in doc["edges"].items():
        if not isinstance(body, dict) or set(body) != {"from", "to"}:
            raise ParseError(f"edges[{eid!r}]: needs exactly the fields 'from' and 'to'")
        edges[str(eid)] = Edge(
            Endpoint.from_json(body["from"], f"edges[{eid!r}].from"),
            Endpoint.from_json(body["to"], f"edges[{eid!r}].to"),
        )

    structure = Structure(nodes, edges)
    violations = validate_topology(structure)
    roles = derive_roles(structure)

    if "roles" in doc:
        declared = doc["roles"]
        if not isinstance(declared, dict):
            raise ParseError("'roles' must map edge ids to roles")
        for eid, role in declared.items():
            if role not in ROLES:
                raise ParseError(f"roles[{eid!r}]: unknown role {role!r}")
            if eid not in edges:
                raise ParseError(f"roles[{eid!r}]: no such edge")
        for eid in sorted(edges):
            if eid not in declared:
                raise ParseError(f"roles: missing entry for edge {eid!r}")
            if declared[eid] != roles[eid]:
                violations.append(
                    Violation("role-mismatch", eid, f"declared {declared[eid]!r} but topology gives {roles[eid]!r}")
                )

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
            assignment[str(eid)] = flavor

    if violations:
        raise InvalidStructureError(violations)
    return Scenario(structure, roles), assignment


def parse_scenario(text: str) -> Scenario:
    """Parse the structure file format to a validated Scenario."""
    scenario, _ = parse_scenario_document(text)
    return scenario


def longest_node_path(structure: Structure) -> int:
    """Node count of the longest directed path through internal edges."""
    return max(node_depths(node_order(structure)).values(), default=0)
