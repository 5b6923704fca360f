"""Text renderings of scenarios: Graphviz DOT or fixed-width ascii.

Conventions in both formats: interventions are round `(...)`, observations
square `[...]`, hidden edges wavy `~...~`; assigned flavors are printed on
the edges. Output is deterministic for a given scenario and assignment.
"""

from __future__ import annotations

from typing import Optional

from .model import FORMATS, Assignment, check_partial
from .structure import (
    HIDDEN,
    Endpoint,
    INTERVENTION,
    InvalidStructureError,
    NodeOrder,
    PRODUCTION,
    PORTS,
    Scenario,
    node_order,
)


def render(scenario: Scenario, assignment: Optional[Assignment] = None, fmt: str = "ascii") -> str:
    """Render a scenario, with flavors from an optional partial assignment."""
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {', '.join(FORMATS)}, got {fmt!r}")
    walk = node_order(scenario.structure)
    if walk.violations:
        raise InvalidStructureError(walk.violations)
    assignment = assignment or {}
    check_partial(scenario.structure.edges, assignment)
    if fmt == "graph":
        return _render_dot(scenario, walk, assignment)
    return _render_ascii(scenario, walk, assignment)


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


def _render_ascii(scenario: Scenario, walk: NodeOrder, assignment: Assignment) -> str:
    struct = scenario.structure
    lines = [f"scenario: {len(struct.nodes)} nodes, {len(struct.edges)} edges"]

    future = [e for e in walk.edges if struct.edges[e].target.is_terminal]
    past = [e for e in walk.edges if struct.edges[e].source.is_terminal]

    # nodes grouped by longest-path depth from the past side; depths run
    # 1..max with no gaps, so a depth is also its tier number
    tiers: dict[int, list[str]] = {}
    for nid, depth in sorted(walk.depth.items()):
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


def _dot_id(ep: Endpoint) -> str:
    return ep.node if ep.terminal is None else f"term:{ep.side}:{ep.terminal}"


def _render_dot(scenario: Scenario, walk: NodeOrder, assignment: Assignment) -> str:
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
    for edge in struct.edges.values():
        for ep, is_source in ((edge.source, True), (edge.target, False)):
            if ep.terminal is not None:
                terminals.add((ep.side, ep.terminal, is_source))
    for side, name, is_source in sorted(terminals):
        shape = "circle" if is_source else "square"
        lines.append(f'  "term:{side}:{name}" [shape={shape}, label="{name}"];')
    for eid in walk.edges:
        src, dst = _dot_id(struct.edges[eid].source), _dot_id(struct.edges[eid].target)
        style = ", style=dashed" if scenario.roles.get(eid) == HIDDEN else ""
        lines.append(f'  "{src}" -> "{dst}" [label="{_edge_label(eid, assignment)}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
