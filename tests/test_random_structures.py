"""Properties of the solver on random valid structures, not only cells and chains.

A drawn structure alternates node kinds along every internal edge and has
random past and future terminals; its node ids are shuffled out of
topological order, so the solver's narrow order need not follow the ids.
"""

import contextlib
import copy
import io
import itertools
import json
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from helsinki import cli, solver
from helsinki.analysis import check_all_inputs
from helsinki.model import (
    ALL_PERMUTATIONS,
    ANNIHILATION,
    FLAVORS,
    PRODUCTION,
    InvalidStructureError,
    apply_permutation,
)
from helsinki.solver import (
    brute_force_complete,
    complete,
    count_completions,
    has_completion,
    is_admissible,
    least_stranding_input,
)
from helsinki.structure import (
    FUTURE,
    IN_PORTS,
    OUT_PORTS,
    PAST,
    PORTS,
    Edge,
    Endpoint,
    ParseError,
    Scenario,
    Structure,
    intervention_edges,
    parse_scenario,
    reverse_time,
    parse_scenario_document,
    serialize_scenario,
    validate_topology,
)


@st.composite
def scenarios(draw, nodes=st.integers(1, 4), loose=st.booleans()):
    """A random valid scenario, time-reversed half of the time.

    Nodes are made in topological order under shuffled ids. Each out-port
    feeds a free in-port of a later node of the other kind, or a future
    terminal; in-ports left free are fed from past terminals; `loose`
    wires (a count, or a bool for none or one) run from the past straight
    to the future.
    """
    n = draw(nodes)
    kinds = draw(st.lists(st.sampled_from([PRODUCTION, ANNIHILATION]), min_size=n, max_size=n))
    names = draw(st.permutations([f"n{i}" for i in range(n)]))
    free = [(j, port) for j in range(n) for port in PORTS[kinds[j]] if port in IN_PORTS]
    wires = []  # (source, target); None for a terminal
    for i in range(n):
        for port in (p for p in PORTS[kinds[i]] if p in OUT_PORTS):
            target = draw(st.sampled_from([None] + [(j, p) for j, p in free if j > i and kinds[j] != kinds[i]]))
            if target is not None:
                free.remove(target)
                target = Endpoint(names[target[0]], target[1])
            wires.append((Endpoint(names[i], port), target))
    wires += [(None, Endpoint(names[j], port)) for j, port in free]
    wires += [(None, None)] * draw(loose)
    ids = draw(st.permutations([f"e{k}" for k in range(len(wires))]))
    edges = {
        eid: Edge(source or Endpoint(terminal=eid, side=PAST), target or Endpoint(terminal=eid, side=FUTURE))
        for eid, (source, target) in zip(ids, wires)
    }
    scenario = Scenario.derive(Structure(dict(zip(names, kinds)), edges))
    if draw(st.booleans()):
        scenario = reverse_time(scenario)
    assert validate_topology(scenario.structure) == []
    return scenario


def structures(**kwargs):
    """The structure of a random valid scenario (`scenarios` takes the same arguments)."""
    return scenarios(**kwargs).map(lambda scenario: scenario.structure)


def pins(structure, most=None):
    return st.dictionaries(st.sampled_from(sorted(structure.edges)), st.sampled_from(FLAVORS), max_size=most)


@settings(max_examples=60, deadline=None)
@given(structures(nodes=st.integers(2, 4)), st.data())
def test_engine_matches_brute_force_on_random_structures(structure, data):
    # the oracle visits all 3^|edges| assignments: about 60 ms at 10 edges, 0.6 s at 12
    assume(len(structure.edges) <= 10)
    partial = data.draw(pins(structure, 2))
    assert complete(structure, partial).solutions == brute_force_complete(structure, partial)


@settings(max_examples=100, deadline=None)
@given(structures(nodes=st.integers(5, 9)), st.data())
def test_count_and_decision_agree_with_enumeration_on_random_structures(structure, data):
    partial = data.draw(pins(structure))
    count = count_completions(structure, partial)
    assert has_completion(structure, partial) == (count > 0)
    if count <= 5000:
        assert len(complete(structure, partial).solutions) == count


@settings(max_examples=100, deadline=None)
@given(structures(nodes=st.integers(1, 9)), st.data())
def test_least_stranding_input_matches_enumeration_on_random_structures(structure, data):
    edges = sorted(structure.edges)
    forall = data.draw(st.lists(st.sampled_from(edges), max_size=3, unique=True))
    partial = data.draw(pins(structure, 4))
    free = [e for e in forall if e not in partial]
    # choices in rank order: base 3 over the sorted free edges, A < B < C
    choices = ({**partial, **dict(zip(sorted(free), c))} for c in itertools.product(FLAVORS, repeat=len(free)))
    least = next(({e: c[e] for e in sorted(forall)} for c in choices if not has_completion(structure, c)), None)
    assert least_stranding_input(structure, partial, forall) == least


def inputs(scenario):
    """A full intervention input of the scenario."""
    return st.fixed_dictionaries({e: st.sampled_from(FLAVORS) for e in intervention_edges(scenario)})


@settings(max_examples=100, deadline=None)
@given(scenarios(nodes=st.integers(1, 9), loose=st.integers(0, 2)))
def test_no_input_strands_a_random_structure_with_its_derived_roles(scenario):
    # the consistency theorem, in both time directions: `check_all_inputs` reads it and runs no search,
    # and the search, its oracle, finds no stranding input either
    for each in (scenario, reverse_time(scenario)):
        edges = intervention_edges(each)
        with mock.patch.object(solver, "least_stranding_input", side_effect=AssertionError("the search ran")):
            report = check_all_inputs(each)
        assert (report.checked, report.counterexample) == (3 ** len(edges), None)
        assert least_stranding_input(each.structure, {}, edges) is None


@settings(max_examples=60, deadline=None)
@given(scenarios(nodes=st.integers(1, 4), loose=st.integers(0, 2)), st.data())
def test_the_causal_witness_is_a_completion_on_random_structures(causal_witness, scenario, data):
    for each in (scenario, reverse_time(scenario)):
        structure, pins = each.structure, data.draw(inputs(each))
        witness = causal_witness(structure, pins)
        assert is_admissible(structure, witness)
        assert {e: witness[e] for e in pins} == pins
        # only node outputs are unpinned, at most 8 of them, so the oracle visits at most 3^8 totals
        assert witness in brute_force_complete(structure, pins)


@settings(max_examples=100, deadline=None)
@given(scenarios(nodes=st.integers(1, 9), loose=st.integers(0, 2)), st.data())
def test_every_input_has_a_completion_per_production_order_on_random_structures(scenario, data):
    # the theorem's corollary: each production may take its two outputs either way round
    for each in (scenario, reverse_time(scenario)):
        productions = sum(kind == PRODUCTION for kind in each.structure.nodes.values())
        assert count_completions(each.structure, data.draw(inputs(each))) >= 2 ** productions


@settings(max_examples=60, deadline=None)
@given(structures(nodes=st.integers(1, 4), loose=st.integers(1, 2)), st.data())
def test_solutions_are_fresh_dicts_in_sorted_edge_order(structure, data):
    edges = sorted(structure.edges)
    loose = [e for e in edges if all(ep.terminal is not None for ep in structure.edges[e])]
    # the first loose wire is pinned; a second one is free unless drawn among the other pins
    partial = {**data.draw(pins(structure, 2)), loose[0]: data.draw(st.sampled_from(FLAVORS))}
    before = list(partial.items())
    solutions = complete(structure, partial).solutions
    assert has_completion(structure, partial) == bool(solutions)
    assert list(partial.items()) == before
    assert all(list(solution) == edges for solution in solutions)
    assert len({id(solution) for solution in solutions}) == len(solutions)
    kept = [dict(solution) for solution in solutions]
    if solutions:
        solutions[0].update(dict.fromkeys(edges, "X"))
        assert solutions[1:] == kept[1:]
    assert complete(structure, partial).solutions == kept


@settings(max_examples=60, deadline=None)
@given(structures(nodes=st.integers(5, 8), loose=st.integers(0, 2)), st.data())
def test_solutions_strictly_increase_in_full_edge_order_beyond_the_oracle(structure, data):
    # the sort reads the deciding edges only; the full key must still order every pair strictly
    partial = data.draw(pins(structure))
    count = count_completions(structure, partial)
    assume(count <= 20000)  # unpinned, some reach 10^8 solutions
    keys = ["".join(solution.values()) for solution in complete(structure, partial).solutions]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert len(keys) == count


@settings(max_examples=60, deadline=None)
@given(scenarios(nodes=st.integers(1, 9)))
def test_serialization_round_trips_byte_for_byte_on_random_structures(scenario):
    text = serialize_scenario(scenario)
    assert serialize_scenario(parse_scenario(text)) == text


@settings(max_examples=60, deadline=None)
@given(scenarios(nodes=st.integers(1, 9)), st.data())
def test_count_is_the_same_in_both_time_directions_on_random_structures(scenario, data):
    partial = data.draw(pins(scenario.structure))
    backward = reverse_time(scenario).structure
    assert count_completions(scenario.structure, partial) == count_completions(backward, partial)


@settings(max_examples=40, deadline=None)
@given(structures(nodes=st.integers(1, 4)), st.sampled_from(ALL_PERMUTATIONS), st.data())
def test_permuting_the_pins_permutes_the_solutions_on_random_structures(structure, permutation, data):
    partial = data.draw(pins(structure, 3))
    permuted = complete(structure, apply_permutation(permutation, partial)).solutions
    expected = [apply_permutation(permutation, solution) for solution in complete(structure, partial).solutions]
    assert permuted == sorted(expected, key=lambda solution: tuple(solution.values()))


#: one value of each JSON type, and strings and objects the format uses; a mutation puts one of another type
JSON_VALUES = (None, True, 0, 1.5, "A", "past", "in1", [], ["A"], {}, {"node": "n0", "port": "in1"})
#: names a renamed key may take: the format's own fields, a flavor, ids the drawn structures use, and ""
KEY_NAMES = ("", "A", "from", "to", "node", "port", "side", "terminal", "nodes", "edges", "roles", "assignment",
             "n0", "e0")
#: the commands that read a structure file
FILE_COMMANDS = (
    ["solve"], ["solve", "--count-only"], ["render", "--format", "graph"], ["render", "--format", "ascii"],
    ["consistency"],
)


def places(doc):
    """(container, key) for every value in a JSON document, depth first."""
    found = []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        found.append((doc, key))
        found += places(value)
    return found


@st.composite
def mutated_documents(draw):
    """A serialized random scenario, with random pins embedded half of the
    time and its roles deleted half of the time, after 1-3 mutations: a
    value replaced by one of another type, a key deleted, or a key renamed."""
    scenario = draw(scenarios(nodes=st.integers(1, 5)))
    assignment = draw(st.none() | pins(scenario.structure, 3))
    doc = json.loads(serialize_scenario(scenario, assignment))
    if draw(st.booleans()):  # the roles are optional, and any change to the edges breaks them
        del doc["roles"]
    for _ in range(draw(st.integers(1, 3))):
        where = places(doc)
        if not where:
            break
        container, key = draw(st.sampled_from(where))
        kind = draw(st.sampled_from(["retype", "delete", "rename"] if isinstance(container, dict) else ["retype"]))
        if kind == "retype":
            old = container[key]
            # a copy: a later mutation may edit the value in place, which must not change JSON_VALUES
            container[key] = copy.deepcopy(draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not type(old)])))
        elif kind == "delete":
            del container[key]
        else:
            container[draw(st.sampled_from(KEY_NAMES + tuple(container)))] = container.pop(key)
    return json.dumps(doc)


@settings(max_examples=100, deadline=None)
@given(mutated_documents())
def test_mutated_documents_end_in_a_documented_exit_code(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(text)
    try:
        parse_scenario_document(text)
        accepted = True
    except (ParseError, InvalidStructureError):
        accepted = False
    for command in FILE_COMMANDS:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.run([command[0], "--structure", str(path), *command[1:]]).exit_code
        assert code in (0, 1, 2), command
        assert "error: internal:" not in err.getvalue(), (command, err.getvalue())
        assert accepted or code != 0, command
