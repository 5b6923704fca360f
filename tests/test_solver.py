import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from helsinki.model import ALL_PERMUTATIONS, ANNIHILATION, FLAVORS, PRODUCTION, apply_permutation
from helsinki.solver import (
    brute_force_complete,
    complete,
    count_completions,
    has_completion,
    is_admissible,
)
from helsinki.structure import (
    FUTURE,
    PAST,
    Edge,
    Endpoint,
    Scenario,
    Structure,
    build_chain,
    build_h_cell,
    reverse_time,
)

CELL = build_h_cell().structure

#: a full cell state with one homogeneous interaction, allowed
ALLOWED_TOTAL = {
    "c_in": "A", "h_left": "A", "h_right": "A",
    "l_in": "B", "l_out": "C", "r_in": "C", "r_out": "B",
}

#: same hidden state but the left annihilation is homogeneous too: two
#: linked homogeneous nodes, disallowed
LINKED_HOMOGENEOUS_TOTAL = {
    "c_in": "A", "h_left": "A", "h_right": "A",
    "l_in": "A", "l_out": "A", "r_in": "C", "r_out": "B",
}


def diamond() -> Scenario:
    """One production feeding both inputs of one annihilation."""
    nodes = {"p": PRODUCTION, "a": ANNIHILATION}
    edges = {
        "c": Edge(Endpoint.at_terminal("c", PAST), Endpoint.at_port("p", "in1")),
        "x": Edge(Endpoint.at_port("p", "out1"), Endpoint.at_port("a", "in1")),
        "y": Edge(Endpoint.at_port("p", "out2"), Endpoint.at_port("a", "in2")),
        "z": Edge(Endpoint.at_port("a", "out1"), Endpoint.at_terminal("z", FUTURE)),
    }
    return Scenario.derive(Structure(nodes, edges))


def free_line() -> Scenario:
    edges = {"w": Edge(Endpoint.at_terminal("w", PAST), Endpoint.at_terminal("w", FUTURE))}
    return Scenario.derive(Structure({}, edges))


# --- admissibility ---


def test_is_admissible_allows_single_homogeneous_node():
    assert is_admissible(CELL, ALLOWED_TOTAL)


def test_is_admissible_rejects_linked_homogeneous_nodes():
    assert not is_admissible(CELL, LINKED_HOMOGENEOUS_TOTAL)


def test_is_admissible_rejects_bad_node():
    bad = dict(ALLOWED_TOTAL, l_out="A")  # left node becomes {A, B, A}
    assert not is_admissible(CELL, bad)


def test_is_admissible_requires_total():
    with pytest.raises(ValueError, match="missing"):
        is_admissible(CELL, {"c_in": "A"})


def test_is_admissible_rejects_unknown_edges():
    with pytest.raises(ValueError, match="unknown"):
        is_admissible(CELL, dict(ALLOWED_TOTAL, ghost="A"))


# --- completion ---


def test_complete_all_inputs_equal_wings():
    result = complete(CELL, {"c_in": "A", "l_in": "B", "r_in": "B"})
    hidden = [(a["h_left"], a["h_right"]) for a in result.solutions]
    assert hidden == [("A", "A"), ("B", "C"), ("C", "B")]


def test_complete_excludes_homogeneous_hidden_when_wing_matches_center():
    result = complete(CELL, {"c_in": "A", "l_in": "A", "r_in": "A"})
    hidden = [(a["h_left"], a["h_right"]) for a in result.solutions]
    assert hidden == [("B", "C"), ("C", "B")]


def test_complete_total_input_returns_it():
    result = complete(CELL, ALLOWED_TOTAL)
    assert result.solutions == [ALLOWED_TOTAL]


def test_complete_contradictory_total_is_empty():
    assert complete(CELL, LINKED_HOMOGENEOUS_TOTAL).solutions == []


def test_complete_orders_solutions_canonically():
    result = complete(CELL, {})
    keys = [tuple(a[e] for e in sorted(CELL.edges)) for a in result.solutions]
    assert keys == sorted(keys)


def test_complete_is_deterministic():
    first = complete(CELL, {"c_in": "A"})
    second = complete(CELL, {"c_in": "A"})
    assert first.solutions == second.solutions
    assert first.explored == second.explored


@pytest.mark.parametrize(
    "partial, explored, solutions",
    [({}, 92532, 28776), ({"h_left.2": "A", "l_out.3": "B"}, 17520, 3220)],
)
def test_chain_three_search_effort_is_pinned(partial, explored, solutions):
    # the visit order decides `explored`; these figures pin it
    result = complete(build_chain(3).structure, partial)
    assert (result.explored, len(result.solutions)) == (explored, solutions)


def test_count_empty_partial_cell():
    assert count_completions(CELL, {}) == 66


def test_count_matches_state_table_rows():
    assert count_completions(CELL, {"c_in": "A", "l_in": "A", "r_in": "B"}) == 2
    assert count_completions(CELL, {"c_in": "A", "l_in": "B", "r_in": "B"}) == 3


def test_count_empty_partial_chain_two():
    assert count_completions(build_chain(2).structure, {}) == 1380


def test_count_agrees_with_complete():
    rng = random.Random(11)
    edge_ids = sorted(CELL.edges)
    for _ in range(25):
        partial = {e: rng.choice(FLAVORS) for e in edge_ids if rng.random() < 0.4}
        assert count_completions(CELL, partial) == len(complete(CELL, partial).solutions)


def test_has_completion():
    assert has_completion(CELL, {})
    assert not has_completion(CELL, LINKED_HOMOGENEOUS_TOTAL)


def test_complete_rejects_unknown_edge():
    with pytest.raises(ValueError, match="unknown"):
        complete(CELL, {"ghost": "A"})


# --- the two routes must agree ---


@pytest.mark.parametrize(
    "scenario", [build_h_cell(), diamond(), free_line(), reverse_time(build_h_cell())]
)
def test_routes_agree_on_empty_partial(scenario):
    assert complete(scenario.structure, {}).solutions == brute_force_complete(scenario.structure, {})


def test_routes_agree_on_single_pins():
    for edge in sorted(CELL.edges):
        for flavor in FLAVORS:
            partial = {edge: flavor}
            assert complete(CELL, partial).solutions == brute_force_complete(CELL, partial)


def test_routes_agree_on_random_partials():
    rng = random.Random(4242)
    edge_ids = sorted(CELL.edges)
    for _ in range(50):
        partial = {e: rng.choice(FLAVORS) for e in edge_ids if rng.random() < 0.5}
        assert complete(CELL, partial).solutions == brute_force_complete(CELL, partial)


def test_diamond_counts():
    structure = diamond().structure
    # hidden pair must be the split of the center flavor; the homogeneous
    # pair would make both linked nodes homogeneous
    assert count_completions(structure, {}) == 6
    assert count_completions(structure, {"c": "A"}) == 2


def test_free_line_completions():
    structure = free_line().structure
    assert [a["w"] for a in complete(structure, {}).solutions] == ["A", "B", "C"]


# --- properties ---

cell_partials = st.dictionaries(
    st.sampled_from(sorted(CELL.edges)), st.sampled_from(FLAVORS), max_size=7
)


@settings(max_examples=60, deadline=None)
@given(cell_partials, st.sampled_from(sorted(CELL.edges)), st.sampled_from(FLAVORS))
def test_adding_a_pin_never_adds_solutions(partial, edge, flavor):
    assume(partial.get(edge, flavor) == flavor)
    narrowed = dict(partial, **{edge: flavor})
    wide = {tuple(sorted(a.items())) for a in complete(CELL, partial).solutions}
    narrow = {tuple(sorted(a.items())) for a in complete(CELL, narrowed).solutions}
    assert narrow <= wide


@settings(max_examples=60, deadline=None)
@given(cell_partials, st.sampled_from(ALL_PERMUTATIONS))
def test_solutions_are_permutation_equivariant(partial, p):
    direct = complete(CELL, apply_permutation(p, partial)).solutions
    mapped = [apply_permutation(p, a) for a in complete(CELL, partial).solutions]
    as_keys = lambda dicts: sorted(tuple(sorted(d.items())) for d in dicts)
    assert as_keys(direct) == as_keys(mapped)


@settings(max_examples=40, deadline=None)
@given(cell_partials)
def test_every_solution_is_admissible(partial):
    for solution in complete(CELL, partial).solutions:
        assert is_admissible(CELL, solution)
