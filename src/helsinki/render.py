"""Text renderings of scenarios: Graphviz DOT or fixed-width ascii.

Conventions in both formats: interventions are round `(...)`, observations
square `[...]`, hidden edges wavy `~...~`; assigned flavors are printed on
the edges. Output is deterministic for a given scenario and assignment.
"""

from __future__ import annotations

from typing import Optional

from .model import FORMATS, HIDDEN, INTERVENTION, PRODUCTION, Assignment, check_partial
from .structure import FUTURE, PAST, PORTS, NodeOrder, Scenario, node_order


def render(scenario: Scenario, assignment: Optional[Assignment] = None, fmt: str = "ascii") -> str:
    """Render a scenario, with flavors from an optional partial assignment.

    Raises InvalidStructureError for a structure that does not validate."""
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {', '.join(FORMATS)}, got {fmt!r}")
    walk = node_order(scenario.structure)
    assignment = assignment or {}
    check_partial(scenario.structure.edges, assignment)
    if fmt == "graph":
        return _render_dot(scenario, walk, assignment)
    return _render_ascii(scenario, walk, assignment)


def _edge_label(eid: str, assignment: Assignment) -> str:
    return f"{eid}={assignment[eid]}" if eid in assignment else eid


_BRACKETS = {INTERVENTION: "()", HIDDEN: "~~"}  # and "[]" for observations


def _render_ascii(scenario: Scenario, walk: NodeOrder, assignment: Assignment) -> str:
    struct = scenario.structure
    lines = [f"scenario: {len(struct.nodes)} nodes, {len(struct.edges)} edges"]

    tags, future, past = {}, [], []
    for eid in walk.edges:
        left, right = _BRACKETS.get(scenario.roles.get(eid), "[]")
        tag = tags[eid] = f"{left}{_edge_label(eid, assignment)}{right}"
        (_, _, source, _), (_, _, target, _) = struct.edges[eid]  # the terminal of each end
        if target is not None:
            future.append(tag)
        if source is not None:
            past.append(tag)

    lines.append("future : " + "  ".join(future))
    # nodes by longest-path depth from the past side, deepest first, ids
    # ascending within a depth; depths run 1..max with no gaps, so a depth
    # is also its tier number
    for nid, number in sorted(walk.depth.items(), key=lambda item: (-item[1], item[0])):
        ports = walk.ports[nid]
        kind = struct.nodes[nid]
        cells = [f"tier {number} : {nid} <{kind}>"]
        for port in PORTS[kind]:
            cells.append(f"{port} {tags[ports[port]]}")
        lines.append("  ".join(cells))
    lines.append("past   : " + "  ".join(past))
    return "\n".join(lines) + "\n"


def _dot(text: str) -> str:
    """`text` escaped for the inside of a DOT quoted string; a text without `\\` or `"` is returned as it is."""
    return text.replace("\\", "\\\\").replace('"', '\\"') if '"' in text or "\\" in text else text


def _render_dot(scenario: Scenario, walk: NodeOrder, assignment: Assignment) -> str:
    struct = scenario.structure
    lines = [
        "digraph scenario {",
        "  rankdir=BT;",
        '  node [fontname="monospace"];',
    ]
    ids = {}  # node id -> its DOT id; one that could read as another node's or a terminal's gets a "node:" prefix
    for nid in sorted(struct.nodes):
        shape = "triangle" if struct.nodes[nid] == PRODUCTION else "invtriangle"
        name = _dot(nid)
        ids[nid] = f"node:{name}" if nid.startswith(("node:", "term:")) else name
        lines.append(f'  "{ids[nid]}" [shape={shape}, label="{name}\\n{struct.nodes[nid]}"];')
    # terminal name -> its DOT id; a valid structure's source terminals are past, its target terminals future
    past = {terminal: "" for (_, _, terminal, _), _ in struct.edges.values() if terminal is not None}
    future = {terminal: "" for _, (_, _, terminal, _) in struct.edges.values() if terminal is not None}
    for side, terminals, shape in ((FUTURE, future, "square"), (PAST, past, "circle")):
        for terminal in sorted(terminals):
            name = _dot(terminal)
            terminals[terminal] = f"term:{side}:{name}"
            lines.append(f'  "{terminals[terminal]}" [shape={shape}, label="{name}"];')
    for eid in walk.edges:
        (src_node, _, src_terminal, _), (dst_node, _, dst_terminal, _) = struct.edges[eid]
        src = ids[src_node] if src_terminal is None else past[src_terminal]
        dst = ids[dst_node] if dst_terminal is None else future[dst_terminal]
        style = ", style=dashed" if scenario.roles.get(eid) == HIDDEN else ""
        lines.append(f'  "{src}" -> "{dst}" [label="{_dot(_edge_label(eid, assignment))}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
