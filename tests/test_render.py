import re

import pytest

from helsinki.model import ANNIHILATION, PRODUCTION
from helsinki.render import render
from helsinki.solver import has_completion
from helsinki.structure import (
    FUTURE,
    PAST,
    Edge,
    Endpoint,
    InvalidStructureError,
    Scenario,
    Structure,
    build_chain,
    build_h_cell,
    node_order,
    reverse_time,
)

CELL_TOTAL = {
    "c_in": "A", "h_left": "A", "h_right": "A",
    "l_in": "B", "l_out": "C", "r_in": "C", "r_out": "B",
}


def test_ascii_shows_assigned_flavors_with_role_sigils():
    art = render(build_h_cell(), CELL_TOTAL, "ascii")
    for tag in ["(c_in=A)", "(l_in=B)", "(r_in=C)", "~h_left=A~", "~h_right=A~", "[l_out=C]", "[r_out=B]"]:
        assert tag in art


def test_ascii_without_assignment_has_bare_edges():
    art = render(build_h_cell(), None, "ascii")
    assert "(c_in)" in art
    assert "=" not in art.replace("<=", "")


def test_ascii_chain_two_shows_alternating_nodes():
    art = render(build_chain(2), None, "ascii")
    for node, kind in [
        ("prod.1", "production"), ("ann_l.1", "annihilation"), ("ann_r.1", "annihilation"),
        ("prod.2", "production"), ("ann_l.2", "annihilation"), ("ann_r.2", "annihilation"),
    ]:
        assert f"{node} <{kind}>" in art


def test_ascii_tiers_run_deepest_first_then_by_node_id():
    # the deepest node, prod.1, sorts after shallower ids, and tier 1 holds three nodes
    art = render(reverse_time(build_chain(2)), None, "ascii")
    tiers = [line.split("  ")[0] for line in art.splitlines() if line.startswith("tier ")]
    assert tiers == [
        "tier 4 : prod.1 <annihilation>",
        "tier 3 : ann_r.1 <production>",
        "tier 2 : prod.2 <annihilation>",
        "tier 1 : ann_l.1 <production>",
        "tier 1 : ann_l.2 <production>",
        "tier 1 : ann_r.2 <production>",
    ]


def test_ascii_tiers_list_ids_in_order_where_the_walk_does_not():
    # the walk takes z (fed by b) before zz, and so before a (fed by zz)
    edges = {}
    for prod, ann in (("b", "z"), ("zz", "a")):
        edges[f"{prod}.in"] = Edge(Endpoint(terminal=f"{prod}.in", side=PAST), Endpoint(prod, "in1"))
        edges[f"{prod}.{ann}"] = Edge(Endpoint(prod, "out1"), Endpoint(ann, "in1"))
        edges[f"{prod}.out"] = Edge(Endpoint(prod, "out2"), Endpoint(terminal=f"{prod}.out", side=FUTURE))
        edges[f"{ann}.in"] = Edge(Endpoint(terminal=f"{ann}.in", side=PAST), Endpoint(ann, "in2"))
        edges[f"{ann}.out"] = Edge(Endpoint(ann, "out1"), Endpoint(terminal=f"{ann}.out", side=FUTURE))
    structure = Structure({"b": PRODUCTION, "zz": PRODUCTION, "z": ANNIHILATION, "a": ANNIHILATION}, edges)
    assert list(node_order(structure).depth) == ["b", "z", "zz", "a"]
    art = render(Scenario.derive(structure), None, "ascii")
    tiers = [line.split(" <")[0] for line in art.splitlines() if line.startswith("tier ")]
    assert tiers == ["tier 2 : a", "tier 2 : z", "tier 1 : b", "tier 1 : zz"]


def test_ascii_deterministic():
    assert render(build_chain(3), None, "ascii") == render(build_chain(3), None, "ascii")


def test_dot_output():
    dot = render(build_h_cell(), CELL_TOTAL, "graph")
    assert dot.startswith("digraph")
    assert '"prod" [shape=triangle' in dot
    assert '"ann_l" [shape=invtriangle' in dot
    assert 'label="h_left=A", style=dashed' in dot
    assert '"term:past:c_in" [shape=circle' in dot
    assert '"term:future:l_out" [shape=square' in dot


def test_dot_deterministic():
    assert render(build_chain(2), None, "graph") == render(build_chain(2), None, "graph")


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render(build_h_cell(), None, "svg")


def test_render_rejects_unknown_assignment_edges():
    with pytest.raises(ValueError):
        render(build_h_cell(), {"ghost": "A"}, "ascii")


@pytest.mark.parametrize("fmt", ["ascii", "graph"])
@pytest.mark.parametrize("pins", [{"c_in": "Z"}, {"l_in": "B", "c_in": "Z", "r_in": "Y"}, {"ghost": "A", "c_in": "Z"}])
def test_render_rejects_pins_with_the_solver_message(fmt, pins):
    with pytest.raises(ValueError) as search:
        has_completion(build_h_cell().structure, pins)
    with pytest.raises(ValueError, match=f"^{re.escape(str(search.value))}$"):
        render(build_h_cell(), pins, fmt)


def test_render_names_a_non_flavor_pin():
    with pytest.raises(ValueError, match=r"^assignment contains non-flavor values: 'Z'$"):
        render(build_h_cell(), {"c_in": "Z"})


def test_render_reports_invalid_structure():
    nodes = {"p": "production"}
    edges = {"in": Edge(Endpoint(terminal="in", side=PAST), Endpoint("p", "in1"))}
    broken = Scenario.derive(Structure(nodes, edges))
    with pytest.raises(InvalidStructureError):
        render(broken, None, "ascii")


@pytest.mark.parametrize("fmt", ["ascii", "graph"])
def test_render_of_an_invalid_structure_raises_on_every_call(fmt):
    # the walk keeps the violations, not a verdict, so the second call sees them too
    nodes = {"p": "production"}
    edges = {"in": Edge(Endpoint(terminal="in", side=PAST), Endpoint("p", "in1"))}
    broken = Scenario.derive(Structure(nodes, edges))
    for _ in range(2):
        with pytest.raises(InvalidStructureError, match="^port-unused \\[p\\]: port 'out1' has no edge; "):
            render(broken, None, fmt)


def test_dot_escapes_an_id_of_quotes_only_and_an_id_of_backslashes_only():
    wire = lambda w: Edge(Endpoint(terminal=w, side=PAST), Endpoint(terminal=w, side=FUTURE))
    dot = render(Scenario.derive(Structure({}, {'"': wire('"'), "\\": wire("\\")})), None, "graph")
    assert dot.splitlines()[3:-1] == [
        '  "term:future:\\"" [shape=square, label="\\""];',
        '  "term:future:\\\\" [shape=square, label="\\\\"];',
        '  "term:past:\\"" [shape=circle, label="\\""];',
        '  "term:past:\\\\" [shape=circle, label="\\\\"];',
        '  "term:past:\\"" -> "term:future:\\"" [label="\\""];',
        '  "term:past:\\\\" -> "term:future:\\\\" [label="\\\\"];',
    ]


def test_dot_escapes_quotes_and_backslashes_in_every_id():
    # the cell with every node, edge and terminal id holding a quote and ending in a backslash
    def odd(name):
        return f'{name[:2]}"{name[2:]}\\'

    def moved(ep):
        return Endpoint(odd(ep.node) if ep.node else None, ep.port, ep.terminal and odd(ep.terminal), ep.side)

    cell = build_h_cell().structure
    structure = Structure(
        {odd(nid): kind for nid, kind in cell.nodes.items()},
        {odd(eid): Edge(moved(edge.source), moved(edge.target)) for eid, edge in cell.edges.items()},
    )
    dot_id = {ep: f"term:{ep.side}:{ep.terminal}" if ep.terminal is not None else ep.node
              for edge in structure.edges.values() for ep in edge}
    assignment = {odd("c_in"): "A"}
    expected = ["monospace"]
    expected += [text for nid, kind in structure.nodes.items() for text in (nid, f"{nid}\\n{kind}")]
    expected += [text for ep in dot_id if ep.terminal is not None for text in (dot_id[ep], ep.terminal)]
    expected += [text for eid, (source, target) in structure.edges.items()
                 for text in (dot_id[source], dot_id[target], f"{eid}=A" if eid in assignment else eid)]
    dot = render(Scenario.derive(structure), assignment, "graph")
    quoted = re.findall(r'"((?:[^"\\]|\\.)*)"', dot)
    assert sorted(re.sub(r'\\(["\\])', r"\1", text) for text in quoted) == sorted(expected)
    assert re.sub(r'"(?:[^"\\]|\\.)*"', "", dot).count('"') == 0


def test_dot_gives_a_node_named_as_a_terminal_or_as_a_prefixed_node_its_own_vertex():
    # the cell's production takes the DOT id of the past terminal c_in, and an annihilation that id with "node:"
    cell = build_h_cell().structure
    rename = {"prod": "term:past:c_in", "ann_l": "node:term:past:c_in", "ann_r": "ann_r"}

    def moved(ep):
        return ep if ep.terminal is not None else Endpoint(rename[ep.node], ep.port)

    structure = Structure({rename[nid]: kind for nid, kind in cell.nodes.items()},
                          {eid: Edge(moved(source), moved(target)) for eid, (source, target) in cell.edges.items()})
    lines = render(Scenario.derive(structure), None, "graph").splitlines()
    vertices = [line.split('"')[1] for line in lines if "[shape=" in line]
    assert len(vertices) == len(set(vertices)) == 8
    assert '  "node:term:past:c_in" [shape=triangle, label="term:past:c_in\\nproduction"];' in lines
    assert '  "node:node:term:past:c_in" [shape=invtriangle, label="node:term:past:c_in\\nannihilation"];' in lines
    assert '  "term:past:c_in" -> "node:term:past:c_in" [label="c_in"];' in lines
