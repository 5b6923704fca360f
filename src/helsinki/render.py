"""Text renderings of scenarios: Graphviz DOT or fixed-width ascii.

Conventions in both formats: interventions are round `(...)`, observations
square `[...]`, hidden edges wavy `~...~`; assigned flavors are printed on
the edges. Output is deterministic for a given scenario and assignment.
"""

from __future__ import annotations

from typing import Optional

from .solver import Assignment
from .structure import (
    HIDDEN,
    INTERVENTION,
    InvalidStructureError,
    PRODUCTION,
    PORTS,
    Scenario,
    node_depths,
    node_order,
    validate_topology,
)

FORMATS = ("graph", "ascii")


def render(scenario: Scenario, assignment: Optional[Assignment] = None, fmt: str = "ascii") -> str:
    """Render a scenario, with flavors from an optional partial assignment."""
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {', '.join(FORMATS)}, got {fmt!r}")
    violations = validate_topology(scenario.structure)
    if violations:
        raise InvalidStructureError(violations)
    assignment = assignment or {}
    unknown = sorted(set(assignment) - set(scenario.structure.edges))
    if unknown:
        raise ValueError(f"assignment mentions unknown edges: {', '.join(unknown)}")
    if fmt == "graph":
        return _render_dot(scenario, assignment)
    return _render_ascii(scenario, assignment)


def _edge_label(eid: str, assignment: Assignment) -> str:
    return f"{eid}={assignment[eid]}" if eid in assignment else eid


def _edge_tag(scenario: Scenario, eid: str, assignment: Assignment) -> str:
    label = _edge_label(eid, assignment)
    role = scenario.roles.get(eid)
    if role == INTERVENTION:
        return f"({label})"
    if role == HIDDEN:
        return f"~{label}~"
    return f"[{label}]"


def _render_ascii(scenario: Scenario, assignment: Assignment) -> str:
    struct = scenario.structure
    lines = [f"scenario: {len(struct.nodes)} nodes, {len(struct.edges)} edges"]

    future = [e for e in struct.edge_ids() if struct.edges[e].target.is_terminal]
    past = [e for e in struct.edge_ids() if struct.edges[e].source.is_terminal]

    # nodes grouped by longest-path depth from the past side; depths run
    # 1..max with no gaps, so a depth is also its tier number
    walk = node_order(struct)
    tiers: dict[int, list[str]] = {}
    for nid, depth in sorted(node_depths(walk).items()):
        tiers.setdefault(depth, []).append(nid)

    lines.append("future : " + "  ".join(_edge_tag(scenario, e, assignment) for e in future))
    for number in sorted(tiers, reverse=True):
        for nid in tiers[number]:
            ports = walk.ports[nid]
            kind = struct.nodes[nid]
            cells = [f"tier {number} : {nid} <{kind}>"]
            for port in PORTS[kind]:
                cells.append(f"{port} {_edge_tag(scenario, ports[port], assignment)}")
            lines.append("  ".join(cells))
    lines.append("past   : " + "  ".join(_edge_tag(scenario, e, assignment) for e in past))
    return "\n".join(lines) + "\n"


def _dot_endpoint_id(scenario: Scenario, eid: str, source: bool) -> str:
    ep = scenario.structure.edges[eid].source if source else scenario.structure.edges[eid].target
    if ep.is_terminal:
        return f"term:{ep.side}:{ep.terminal}"
    return ep.node


def _render_dot(scenario: Scenario, assignment: Assignment) -> str:
    struct = scenario.structure
    lines = [
        "digraph scenario {",
        "  rankdir=BT;",
        '  node [fontname="monospace"];',
    ]
    for nid in sorted(struct.nodes):
        shape = "triangle" if struct.nodes[nid] == PRODUCTION else "invtriangle"
        lines.append(f'  "{nid}" [shape={shape}, label="{nid}\\n{struct.nodes[nid]}"];')
    terminals = set()
    for eid in struct.edge_ids():
        for ep, is_source in ((struct.edges[eid].source, True), (struct.edges[eid].target, False)):
            if ep.is_terminal:
                terminals.add((ep.side, ep.terminal, is_source))
    for side, name, is_source in sorted(terminals):
        shape = "circle" if is_source else "square"
        lines.append(f'  "term:{side}:{name}" [shape={shape}, label="{name}"];')
    for eid in struct.edge_ids():
        src = _dot_endpoint_id(scenario, eid, source=True)
        dst = _dot_endpoint_id(scenario, eid, source=False)
        style = ", style=dashed" if scenario.roles.get(eid) == HIDDEN else ""
        lines.append(f'  "{src}" -> "{dst}" [label="{_edge_label(eid, assignment)}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
