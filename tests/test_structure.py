import itertools
import json
import sys

import pytest
from hypothesis import given, settings, strategies as hyp

from helsinki import structure as structure_module
from helsinki.model import ANNIHILATION, FLAVORS, PRODUCTION
from helsinki.render import render
from helsinki.solver import complete, count_completions, is_admissible
from helsinki.structure import (
    FUTURE,
    HIDDEN,
    INTERVENTION,
    OBSERVATION,
    PAST,
    Edge,
    Endpoint,
    InvalidStructureError,
    ParseError,
    Scenario,
    Structure,
    Violation,
    build_chain,
    build_h_cell,
    intervention_edges,
    longest_node_path,
    node_order,
    parse_scenario,
    parse_scenario_document,
    reverse_time,
    serialize_scenario,
    validate_topology,
)


def codes(violations):
    return sorted(v.code for v in violations)


def edges_with(scenario, role):
    return sorted(e for e, r in scenario.roles.items() if r == role)


# --- builders ---


def test_h_cell_shape():
    cell = build_h_cell()
    assert len(cell.structure.nodes) == 3
    assert len(cell.structure.edges) == 7
    assert cell.roles == {
        "c_in": INTERVENTION,
        "l_in": INTERVENTION,
        "r_in": INTERVENTION,
        "l_out": OBSERVATION,
        "r_out": OBSERVATION,
        "h_left": HIDDEN,
        "h_right": HIDDEN,
    }


def test_h_cell_valid():
    assert validate_topology(build_h_cell().structure) == []


def test_h_cell_two_hidden_edges():
    assert edges_with(build_h_cell(), HIDDEN) == ["h_left", "h_right"]


def test_chain_one_is_the_plain_cell():
    chain, cell = build_chain(1), build_h_cell()
    assert chain == cell
    assert serialize_scenario(chain) == serialize_scenario(cell)
    assert list(chain.structure.edges) == list(cell.structure.edges)
    assert list(chain.structure.edges) == ["c_in", "h_left", "h_right", "l_in", "r_in", "l_out", "r_out"]
    assert list(chain.structure.nodes) == ["prod", "ann_l", "ann_r"]


def test_chain_two_shape():
    chain = build_chain(2)
    assert len(chain.structure.nodes) == 6
    assert len(chain.structure.edges) == 13
    assert intervention_edges(chain) == ["c_in", "l_in.1", "l_in.2", "r_in.1", "r_in.2"]
    assert edges_with(chain, OBSERVATION) == ["l_out.1", "l_out.2", "r_out.2"]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_chain_node_and_edge_counts(k):
    chain = build_chain(k)
    assert len(chain.structure.nodes) == 3 * k
    assert len(chain.structure.edges) == 6 * k + 1
    assert validate_topology(chain.structure) == []


def test_chain_three_longest_path():
    assert longest_node_path(build_chain(3).structure) == 6


def test_longest_path_of_the_empty_structure_is_zero():
    assert longest_node_path(Structure({}, {})) == 0


def test_longest_path_of_a_deep_chain():
    assert longest_node_path(build_chain(1000).structure) == 2000


def test_chain_rejects_zero():
    with pytest.raises(ValueError):
        build_chain(0)


def test_chain_connector_alternates():
    chain = build_chain(2)
    connector = chain.structure.edges["c_mid.2"]
    assert chain.structure.nodes[connector.source.node] == ANNIHILATION
    assert chain.structure.nodes[connector.target.node] == PRODUCTION
    assert chain.roles["c_mid.2"] == HIDDEN


# --- validation ---


def test_alternation_violation():
    nodes = {"p1": PRODUCTION, "p2": PRODUCTION}
    edges = {
        "up": Edge(Endpoint("p1", "out1"), Endpoint("p2", "in1")),
        "a": Edge(Endpoint(terminal="a", side=PAST), Endpoint("p1", "in1")),
        "b": Edge(Endpoint("p1", "out2"), Endpoint(terminal="b", side=FUTURE)),
        "c": Edge(Endpoint("p2", "out1"), Endpoint(terminal="c", side=FUTURE)),
        "d": Edge(Endpoint("p2", "out2"), Endpoint(terminal="d", side=FUTURE)),
    }
    violations = validate_topology(Structure(nodes, edges))
    assert codes(violations) == ["alternation"]
    assert violations[0].subject == "up"


def test_missing_port_violation():
    cell = build_h_cell()
    pruned = Structure(dict(cell.structure.nodes), dict(cell.structure.edges))
    del pruned.edges["r_in"]
    violations = validate_topology(pruned)
    assert codes(violations) == ["port-unused"]
    assert violations[0].subject == "ann_r"
    assert "in2" in violations[0].message


def test_duplicate_port_violation():
    cell = build_h_cell()
    edges = dict(cell.structure.edges)
    edges["extra"] = Edge(Endpoint(terminal="extra", side=PAST), Endpoint("prod", "in1"))
    violations = validate_topology(Structure(dict(cell.structure.nodes), edges))
    assert "port-conflict" in codes(violations)


def test_direction_violation():
    nodes = {"p": PRODUCTION}
    edges = {
        "in": Edge(Endpoint(terminal="in", side=PAST), Endpoint("p", "in1")),
        "o1": Edge(Endpoint("p", "out1"), Endpoint(terminal="o1", side=FUTURE)),
        # wrong way round: drawn from a future terminal into an out-port
        "o2": Edge(Endpoint(terminal="o2", side=FUTURE), Endpoint("p", "out2")),
    }
    violations = validate_topology(Structure(nodes, edges))
    assert "bad-direction" in codes(violations)


def test_cycle_violation():
    nodes = {"p": PRODUCTION, "a": ANNIHILATION}
    edges = {
        "e1": Edge(Endpoint("p", "out1"), Endpoint("a", "in1")),
        "e2": Edge(Endpoint("a", "out1"), Endpoint("p", "in1")),
        "e3": Edge(Endpoint(terminal="e3", side=PAST), Endpoint("a", "in2")),
        "e4": Edge(Endpoint("p", "out2"), Endpoint(terminal="e4", side=FUTURE)),
    }
    violations = validate_topology(Structure(nodes, edges))
    assert [v.subject for v in violations if v.code == "cycle"] == ["a,p"]


def test_unknown_node_violation():
    edges = {"e": Edge(Endpoint("ghost", "out1"), Endpoint(terminal="e", side=FUTURE))}
    violations = validate_topology(Structure({}, edges))
    assert "unknown-node" in codes(violations)


def test_free_line_is_valid():
    # a single world-line from past to future, no interactions at all
    edges = {"w": Edge(Endpoint(terminal="w", side=PAST), Endpoint(terminal="w", side=FUTURE))}
    structure = Structure({}, edges)
    assert validate_topology(structure) == []
    assert Scenario.derive(structure).roles == {"w": INTERVENTION}


# --- time reversal ---


def test_reverse_time_involution():
    for scenario in (build_h_cell(), build_chain(2)):
        assert reverse_time(reverse_time(scenario)) == scenario


def test_reverse_time_roles():
    reversed_cell = reverse_time(build_h_cell())
    assert intervention_edges(reversed_cell) == ["l_out", "r_out"]
    assert edges_with(reversed_cell, OBSERVATION) == ["c_in", "l_in", "r_in"]


def test_reverse_time_kinds():
    reversed_cell = reverse_time(build_h_cell())
    kinds = sorted(reversed_cell.structure.nodes.values())
    assert kinds == [ANNIHILATION, PRODUCTION, PRODUCTION]
    assert validate_topology(reversed_cell.structure) == []


def test_reverse_time_preserves_admissibility():
    cell = build_h_cell()
    reversed_cell = reverse_time(cell)
    edge_ids = sorted(cell.structure.edges)
    for combo in itertools.product(FLAVORS, repeat=len(edge_ids)):
        assignment = dict(zip(edge_ids, combo))
        assert is_admissible(cell.structure, assignment) == is_admissible(
            reversed_cell.structure, assignment
        )


# --- serialization ---


@pytest.mark.parametrize("scenario", [build_h_cell(), build_chain(2), reverse_time(build_h_cell())])
def test_round_trip(scenario):
    assert parse_scenario(serialize_scenario(scenario)) == scenario


def test_round_trip_with_assignment():
    cell = build_h_cell()
    pins = {"c_in": "A", "l_in": "B"}
    parsed, embedded = parse_scenario_document(serialize_scenario(cell, pins))
    assert parsed == cell
    assert embedded == pins


@pytest.mark.parametrize("pins, message", [
    ({"nope": "Z"}, "assignment mentions unknown edges: nope"),
    ({"c_in": 1}, "assignment contains non-flavor values: 1"),
])
def test_serialize_refuses_an_assignment_no_reader_would_take(pins, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        serialize_scenario(build_h_cell(), pins)


def test_parse_reports_json_position():
    with pytest.raises(ParseError, match="line"):
        parse_scenario("{not json")


def test_parse_missing_port_names_port():
    cell = build_h_cell()
    doc = json.loads(serialize_scenario(cell))
    del doc["edges"]["r_in"]
    del doc["roles"]["r_in"]
    with pytest.raises(InvalidStructureError, match="in2"):
        parse_scenario(json.dumps(doc))


def test_parse_rejects_unknown_flavor_in_assignment():
    cell = build_h_cell()
    doc = json.loads(serialize_scenario(cell, {"c_in": "A"}))
    doc["assignment"]["c_in"] = "X"
    with pytest.raises(ParseError, match="flavor"):
        parse_scenario(json.dumps(doc))


def test_parse_rejects_bad_endpoint():
    text = json.dumps({"nodes": {}, "edges": {"e": {"from": {"oops": 1}, "to": {"oops": 2}}}})
    with pytest.raises(ParseError, match="endpoint"):
        parse_scenario(text)


@pytest.mark.parametrize("bad", [["in1"], {"port": "in1"}, 1, None])
@pytest.mark.parametrize("end, field", [("to", "node"), ("to", "port"), ("from", "terminal"), ("from", "side")])
def test_parse_rejects_non_string_endpoint_fields(end, field, bad):
    doc = json.loads(serialize_scenario(build_h_cell()))
    doc["edges"]["c_in"][end][field] = bad
    with pytest.raises(ParseError, match=field):
        parse_scenario(json.dumps(doc))


def test_parse_rejects_role_mismatch():
    cell = build_h_cell()
    doc = json.loads(serialize_scenario(cell))
    doc["roles"]["c_in"] = "hidden"
    with pytest.raises(InvalidStructureError, match="role-mismatch"):
        parse_scenario(json.dumps(doc))


def test_parse_rejects_bad_kind():
    text = json.dumps({"nodes": {"n": "fusion"}, "edges": {}})
    with pytest.raises(ParseError, match="kind"):
        parse_scenario(text)


def test_roles_optional_on_parse():
    cell = build_h_cell()
    doc = json.loads(serialize_scenario(cell))
    del doc["roles"]
    assert parse_scenario(json.dumps(doc)) == cell


def test_scenario_derive_matches_builder():
    cell = build_h_cell()
    assert Scenario.derive(cell.structure) == cell


# --- the direct writer against json.dumps ---


def document(scenario, assignment=None):
    """The file format as a document, the way the writer described it
    before it wrote the text directly: the oracle of the byte tests."""

    def endpoint(ep):
        node, port, terminal, side = ep
        return {"node": node, "port": port} if terminal is None else {"terminal": terminal, "side": side}

    doc = {
        "nodes": dict(scenario.structure.nodes),
        "edges": {
            eid: {"from": endpoint(edge.source), "to": endpoint(edge.target)}
            for eid, edge in scenario.structure.edges.items()
        },
        "roles": dict(scenario.roles),
    }
    if assignment is not None:
        doc["assignment"] = dict(assignment)
    return json.dumps(doc, indent=2, sort_keys=True)


WRITER_CASES = [build_h_cell()] + [build_chain(k) for k in range(1, 6)] + [reverse_time(build_chain(3))]


@pytest.mark.parametrize("scenario", WRITER_CASES)
@pytest.mark.parametrize("pins", ["none", "empty", "partial"])
def test_writer_matches_json_dumps_byte_for_byte(scenario, pins):
    edges = sorted(scenario.structure.edges)
    assignment = {"none": None, "empty": {}, "partial": {e: FLAVORS[i % 3] for i, e in enumerate(edges[::2])}}[pins]
    assert serialize_scenario(scenario, assignment) == document(scenario, assignment)


#: characters json escapes, plus plain ones, a non-BMP one and a dot
ID_TEXT = hyp.text(alphabet=hyp.sampled_from(['"', "\\", "\n", "\t", "\x00", "é", "☃", "\U0001f600", "a", "."]),
                   max_size=4)


@given(hyp.lists(ID_TEXT, min_size=10, max_size=10, unique=True), hyp.sampled_from(FLAVORS))
@settings(max_examples=60, deadline=None)
def test_writer_escapes_ids_as_json_does(ids, flavor):
    # the cell with every node and edge renamed; the empty string is an id like any other
    cell = build_h_cell()
    rename = dict(zip(sorted(cell.structure.nodes) + sorted(cell.structure.edges), ids))

    def moved(ep):
        return ep if ep.terminal is not None else Endpoint(rename[ep.node], ep.port)

    structure = Structure(
        {rename[n]: kind for n, kind in cell.structure.nodes.items()},
        {rename[e]: Edge(moved(edge.source), moved(edge.target)) for e, edge in cell.structure.edges.items()},
    )
    scenario = Scenario.derive(structure)
    assignment = {rename["c_in"]: flavor, rename["h_left"]: flavor}
    text = serialize_scenario(scenario, assignment)
    assert text == document(scenario, assignment)
    assert parse_scenario_document(text) == (scenario, assignment)


def test_structures_compare_by_nodes_and_edges():
    cell = build_h_cell().structure
    other_kinds = {nid: PRODUCTION if kind == ANNIHILATION else ANNIHILATION for nid, kind in cell.nodes.items()}
    wire = Edge(Endpoint(terminal="w", side=PAST), Endpoint(terminal="w", side=FUTURE))
    assert Structure(dict(cell.nodes), dict(cell.edges)) == cell
    assert Structure(dict(cell.nodes), {**cell.edges, "w": wire}) != cell
    assert Structure(other_kinds, dict(cell.edges)) != cell


def test_endpoints_compare_by_value():
    assert Endpoint("p", "in1") == Endpoint(node="p", port="in1")
    assert Endpoint(None, None, "c", PAST) == Endpoint(terminal="c", side=PAST)
    assert Endpoint("p", "in1") != Endpoint("p", "in2")
    assert Endpoint("c", "in1") != Endpoint(terminal="c", side=PAST)
    assert len({Endpoint("p", "in1"), Endpoint(node="p", port="in1")}) == 1


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("mirrored", [False, True], ids=["forward", "reversed"])
def test_parsed_edges_and_endpoints_are_the_named_tuples(k, mirrored):
    scenario = reverse_time(build_chain(k)) if mirrored else build_chain(k)
    assignment = {e: FLAVORS[i % 3] for i, e in enumerate(sorted(scenario.structure.edges)) if i % 2}
    parsed, pins = parse_scenario_document(serialize_scenario(scenario, assignment))
    assert parsed.structure == scenario.structure
    assert parsed.roles == scenario.roles and pins == assignment
    for eid, edge in parsed.structure.edges.items():
        assert type(edge) is Edge and (edge.source, edge.target) == scenario.structure.edges[eid]
        for ep, built in zip(edge, scenario.structure.edges[eid]):
            assert type(ep) is Endpoint
            assert ep._asdict() == built._asdict()
            assert list(ep._asdict()) == ["node", "port", "terminal", "side"]


# --- one walk per structure object ---


def test_validate_topology_returns_a_fresh_list():
    broken = Structure({"n": "fusion"}, {})
    first = validate_topology(broken)
    first.append("junk")
    first.clear()
    assert validate_topology(broken) == [Violation("bad-kind", "n", "unknown node kind 'fusion'")]
    assert validate_topology(broken) is not validate_topology(broken)


def test_validate_render_path_and_search_share_one_walk(monkeypatch):
    walks = []
    build = structure_module._walk
    monkeypatch.setattr(structure_module, "_walk", lambda s: walks.append(s) or build(s))
    scenario = build_chain(2)
    assert validate_topology(scenario.structure) == []
    render(scenario, None, "ascii")
    render(scenario, None, "graph")
    assert longest_node_path(scenario.structure) == 4
    assert count_completions(scenario.structure, {"c_in": "A"}) > 0
    assert is_admissible(scenario.structure, complete(scenario.structure, {}).solutions[0])
    assert walks == [scenario.structure]


# --- every message, word for word ---


def edited(change, cells=1):
    doc = json.loads(serialize_scenario(build_chain(cells), {"c_in": "A"}))
    change(doc)
    return json.dumps(doc)


def put(path, value):
    def change(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return change


def drop(*path):
    def change(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        del doc[last]
    return change


PARSE_ERRORS = [
    ("{not json", "invalid JSON at line 1, column 2: Expecting property name enclosed in double quotes"),
    ("[]", "top level must be an object"),
    ('{"edges": {}}', "missing required field 'nodes'"),
    ('{"nodes": {}}', "missing required field 'edges'"),
    (edited(lambda d: d.update(zzz=1, extra=2)), "unknown top-level fields: ['extra', 'zzz']"),
    (edited(put(["nodes"], [])), "'nodes' must map node ids to kinds"),
    (edited(put(["nodes", "prod"], "fusion")),
     "nodes['prod']: kind must be one of production/annihilation, got 'fusion'"),
    (edited(put(["edges"], [])), "'edges' must map edge ids to endpoint pairs"),
    (edited(drop("edges", "c_in", "to")), "edges['c_in']: needs exactly the fields 'from' and 'to'"),
    (edited(put(["edges", "c_in", "via"], {})), "edges['c_in']: needs exactly the fields 'from' and 'to'"),
    (edited(put(["edges", "c_in", "from"], ["c_in"])), "edges['c_in'].from: endpoint must be an object, got list"),
    (edited(put(["edges", "c_in", "from"], {"oops": 1})),
     "edges['c_in'].from: endpoint needs keys node/port or terminal/side, got ['oops']"),
    (edited(put(["edges", "c_in", "to", "side"], "past")),
     "edges['c_in'].to: endpoint needs keys node/port or terminal/side, got ['node', 'port', 'side']"),
    (edited(put(["edges", "c_in", "to", "node"], 1)), "edges['c_in'].to.node: must be a string, got int"),
    (edited(put(["edges", "c_in", "to", "port"], None)), "edges['c_in'].to.port: must be a string, got NoneType"),
    (edited(put(["edges", "c_in", "to", "port"], "in3")), "edges['c_in'].to: unknown port 'in3'"),
    (edited(put(["edges", "c_in", "from", "terminal"], ["c_in"])),
     "edges['c_in'].from.terminal: must be a string, got list"),
    (edited(put(["edges", "c_in", "from", "side"], "sideways")),
     "edges['c_in'].from: side must be 'past' or 'future', got 'sideways'"),
    (edited(put(["edges", "c_in", "to"], {"node": "prod", "side": "future"})),
     "edges['c_in'].to: endpoint needs keys node/port or terminal/side, got ['node', 'side']"),
    (edited(put(["edges", "c_in", "from"], {"port": "out1", "terminal": "c_in"})),
     "edges['c_in'].from: endpoint needs keys node/port or terminal/side, got ['port', 'terminal']"),
    (edited(put(["edges", "c_in", "from", "side"], 1)), "edges['c_in'].from.side: must be a string, got int"),
    (edited(put(["edges", "c_in"], "c_in")), "edges['c_in']: needs exactly the fields 'from' and 'to'"),
    (edited(put(["edges", "h_left", "to", "port"], "out9")), "edges['h_left'].to: unknown port 'out9'"),
    # r_out.3 is the last edge of the chain:3 document
    (edited(put(["edges", "r_out.3", "to", "side"], "later"), cells=3),
     "edges['r_out.3'].to: side must be 'past' or 'future', got 'later'"),
    (edited(put(["roles"], [])), "'roles' must map edge ids to roles"),
    (edited(put(["roles", "c_in"], "boss")), "roles['c_in']: unknown role 'boss'"),
    (edited(put(["roles", "ghost"], "hidden")), "roles['ghost']: no such edge"),
    (edited(drop("roles", "c_in")), "roles: missing entry for edge 'c_in'"),
    (edited(put(["assignment"], [])), "'assignment' must map edge ids to flavors"),
    (edited(put(["assignment", "ghost"], "A")), "assignment['ghost']: no such edge"),
    (edited(put(["assignment", "c_in"], "X")), "assignment['c_in']: unknown flavor 'X'"),
]


@pytest.mark.parametrize("text, message", PARSE_ERRORS)
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as error:
        parse_scenario_document(text)
    assert str(error.value) == message


@pytest.mark.parametrize(
    "text", ["[" * 200_000, '{"nodes": {}, "edges": {}, "roles": ' + "[" * 100_000 + "]" * 100_000 + "}"],
    ids=["brackets", "roles"],
)
def test_deeply_nested_json_is_a_parse_error(text):
    with pytest.raises(ParseError, match="^invalid JSON: nested too deeply$"):
        parse_scenario_document(text)


def test_an_integer_literal_past_the_digit_limit_is_a_parse_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not 0 < limit < 5000:
        pytest.skip("no integer digit limit below 5 000")
    with pytest.raises(ParseError, match="^invalid JSON: "):
        parse_scenario_document('{"nodes": {"p": ' + "1" * 5000 + '}, "edges": {}}')


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_the_walk_keeps_its_nodes_in_kahn_order(k, reverse):
    scenario = reverse_time(build_chain(k)) if reverse else build_chain(k)
    structure = scenario.structure
    links = [(src[0], dst[0]) for src, dst in structure.edges.values() if src[2] is None and dst[2] is None]
    order = []  # the least id first among the nodes whose sources are all placed
    while len(order) < len(structure.nodes):
        ready = [n for n in structure.nodes if n not in order and all(a in order for a, b in links if b == n)]
        order.append(min(ready))
    assert list(node_order(structure).depth) == order


def test_violation_messages():
    nodes = {"p": PRODUCTION, "q": PRODUCTION, "a": ANNIHILATION, "z": "fusion"}
    edges = {
        "e1": Edge(Endpoint(terminal="e1", side=FUTURE), Endpoint("p", "in1")),
        "e2": Edge(Endpoint("p", "out1"), Endpoint("q", "in1")),
        "e3": Edge(Endpoint("p", "in2"), Endpoint(terminal="e3", side=PAST)),
        "e4": Edge(Endpoint("ghost", "out1"), Endpoint("a", "in1")),
        "e5": Edge(Endpoint("a", "out1"), Endpoint("p", "in1")),
        "e6": Edge(Endpoint("q", "out1"), Endpoint("a", "out1")),
    }
    assert [str(v) for v in validate_topology(Structure(nodes, edges))] == [
        "bad-kind [z]: unknown node kind 'fusion'",
        "bad-direction [e1]: source terminal must be on the past side",
        "bad-port [e3]: source port 'in2' does not exist on production node 'p'",
        "bad-direction [e3]: source must be an out-port, got 'in2'",
        "bad-direction [e3]: target terminal must be on the future side",
        "unknown-node [e4]: source references missing node 'ghost'",
        "bad-direction [e6]: target must be an in-port, got 'out1'",
        "port-unused [a]: port 'in2' has no edge",
        "port-conflict [a]: port 'out1' used by edges e5, e6",
        "port-conflict [p]: port 'in1' used by edges e1, e5",
        "port-unused [p]: port 'out2' has no edge",
        "port-unused [q]: port 'out2' has no edge",
        "alternation [e2]: links two production nodes (p -> q)",
        "cycle [a,p,q]: directed cycle through these nodes",
    ]


def test_invalid_structure_error_message():
    with pytest.raises(InvalidStructureError) as error:
        parse_scenario(edited(put(["roles", "c_in"], "hidden")))
    assert str(error.value) == "role-mismatch [c_in]: declared 'hidden' but topology gives 'intervention'"
    nodes = {"p": PRODUCTION}
    edges = {"in": Edge(Endpoint(terminal="in", side=PAST), Endpoint("p", "in1"))}
    with pytest.raises(InvalidStructureError) as error:
        parse_scenario(serialize_scenario(Scenario.derive(Structure(nodes, edges))))
    assert str(error.value) == "port-unused [p]: port 'out1' has no edge; port-unused [p]: port 'out2' has no edge"
