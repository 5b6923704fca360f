import itertools
import json

import pytest

from helsinki.model import ANNIHILATION, FLAVORS, PRODUCTION
from helsinki.solver import is_admissible
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
    build_chain,
    build_h_cell,
    derive_roles,
    hidden_edges,
    intervention_edges,
    longest_node_path,
    observation_edges,
    parse_scenario,
    parse_scenario_document,
    reverse_time,
    serialize_scenario,
    validate_topology,
)


def codes(violations):
    return sorted(v.code for v in violations)


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
    assert hidden_edges(build_h_cell()) == ["h_left", "h_right"]


def test_chain_one_is_the_plain_cell():
    assert build_chain(1) == build_h_cell()


def test_chain_two_shape():
    chain = build_chain(2)
    assert len(chain.structure.nodes) == 6
    assert len(chain.structure.edges) == 13
    assert intervention_edges(chain) == ["c_in", "l_in.1", "l_in.2", "r_in.1", "r_in.2"]
    assert observation_edges(chain) == ["l_out.1", "l_out.2", "r_out.2"]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_chain_node_and_edge_counts(k):
    chain = build_chain(k)
    assert len(chain.structure.nodes) == 3 * k
    assert len(chain.structure.edges) == 6 * k + 1
    assert validate_topology(chain.structure) == []


def test_chain_three_longest_path():
    assert longest_node_path(build_chain(3).structure) == 6


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
        "up": Edge(Endpoint.at_port("p1", "out1"), Endpoint.at_port("p2", "in1")),
        "a": Edge(Endpoint.at_terminal("a", PAST), Endpoint.at_port("p1", "in1")),
        "b": Edge(Endpoint.at_port("p1", "out2"), Endpoint.at_terminal("b", FUTURE)),
        "c": Edge(Endpoint.at_port("p2", "out1"), Endpoint.at_terminal("c", FUTURE)),
        "d": Edge(Endpoint.at_port("p2", "out2"), Endpoint.at_terminal("d", FUTURE)),
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
    edges["extra"] = Edge(Endpoint.at_terminal("extra", PAST), Endpoint.at_port("prod", "in1"))
    violations = validate_topology(Structure(dict(cell.structure.nodes), edges))
    assert "port-conflict" in codes(violations)


def test_direction_violation():
    nodes = {"p": PRODUCTION}
    edges = {
        "in": Edge(Endpoint.at_terminal("in", PAST), Endpoint.at_port("p", "in1")),
        "o1": Edge(Endpoint.at_port("p", "out1"), Endpoint.at_terminal("o1", FUTURE)),
        # wrong way round: drawn from a future terminal into an out-port
        "o2": Edge(Endpoint.at_terminal("o2", FUTURE), Endpoint.at_port("p", "out2")),
    }
    violations = validate_topology(Structure(nodes, edges))
    assert "bad-direction" in codes(violations)


def test_cycle_violation():
    nodes = {"p": PRODUCTION, "a": ANNIHILATION}
    edges = {
        "e1": Edge(Endpoint.at_port("p", "out1"), Endpoint.at_port("a", "in1")),
        "e2": Edge(Endpoint.at_port("a", "out1"), Endpoint.at_port("p", "in1")),
        "e3": Edge(Endpoint.at_terminal("e3", PAST), Endpoint.at_port("a", "in2")),
        "e4": Edge(Endpoint.at_port("p", "out2"), Endpoint.at_terminal("e4", FUTURE)),
    }
    violations = validate_topology(Structure(nodes, edges))
    assert [v.subject for v in violations if v.code == "cycle"] == ["a,p"]


def test_unknown_node_violation():
    edges = {"e": Edge(Endpoint.at_port("ghost", "out1"), Endpoint.at_terminal("e", FUTURE))}
    violations = validate_topology(Structure({}, edges))
    assert "unknown-node" in codes(violations)


def test_free_line_is_valid():
    # a single world-line from past to future, no interactions at all
    edges = {"w": Edge(Endpoint.at_terminal("w", PAST), Endpoint.at_terminal("w", FUTURE))}
    structure = Structure({}, edges)
    assert validate_topology(structure) == []
    assert derive_roles(structure) == {"w": INTERVENTION}


# --- time reversal ---


def test_reverse_time_involution():
    for scenario in (build_h_cell(), build_chain(2)):
        assert reverse_time(reverse_time(scenario)) == scenario


def test_reverse_time_roles():
    reversed_cell = reverse_time(build_h_cell())
    assert intervention_edges(reversed_cell) == ["l_out", "r_out"]
    assert observation_edges(reversed_cell) == ["c_in", "l_in", "r_in"]


def test_reverse_time_kinds():
    reversed_cell = reverse_time(build_h_cell())
    kinds = sorted(reversed_cell.structure.nodes.values())
    assert kinds == [ANNIHILATION, PRODUCTION, PRODUCTION]
    assert validate_topology(reversed_cell.structure) == []


def test_reverse_time_preserves_admissibility():
    cell = build_h_cell()
    reversed_cell = reverse_time(cell)
    edge_ids = cell.structure.edge_ids()
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
