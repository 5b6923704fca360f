import copy
import functools
import itertools
import pickle
import random
import re
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from helsinki import solver, structure as structure_module
from helsinki.analysis import check_all_inputs
from helsinki.model import ALL_PERMUTATIONS, ANNIHILATION, FLAVORS, PRODUCTION, InvalidStructureError, apply_permutation
from helsinki.render import render
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
    INTERVENTION,
    PAST,
    Edge,
    Endpoint,
    Scenario,
    Structure,
    build_chain,
    build_h_cell,
    longest_node_path,
    memo,
    node_order,
    reverse_time,
    validate_topology,
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
        "c": Edge(Endpoint(terminal="c", side=PAST), Endpoint("p", "in1")),
        "x": Edge(Endpoint("p", "out1"), Endpoint("a", "in1")),
        "y": Edge(Endpoint("p", "out2"), Endpoint("a", "in2")),
        "z": Edge(Endpoint("a", "out1"), Endpoint(terminal="z", side=FUTURE)),
    }
    return Scenario.derive(Structure(nodes, edges))


def wired_cell() -> Scenario:
    """The h-cell plus a past-to-future wire that no node reads."""
    cell = build_h_cell().structure
    wire = Edge(Endpoint(terminal="w", side=PAST), Endpoint(terminal="w", side=FUTURE))
    return Scenario.derive(Structure(dict(cell.nodes), {**cell.edges, "w": wire}))


def lone_production() -> Scenario:
    """One production from the past to the future: the layout's last step is its only step."""
    edges = {
        "c": Edge(Endpoint(terminal="c", side=PAST), Endpoint("p", "in1")),
        "x": Edge(Endpoint("p", "out1"), Endpoint(terminal="x", side=FUTURE)),
        "y": Edge(Endpoint("p", "out2"), Endpoint(terminal="y", side=FUTURE)),
    }
    return Scenario.derive(Structure({"p": PRODUCTION}, edges))


def free_line() -> Scenario:
    edges = {"w": Edge(Endpoint(terminal="w", side=PAST), Endpoint(terminal="w", side=FUTURE))}
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


def test_is_admissible_is_linear_in_the_structure(chain_400_witness):
    # it reads the port table of the one walk; asking each node for its
    # edges by a scan over every edge took over a second at 400 cells
    scenario, pins = chain_400_witness
    (solution,) = complete(scenario.structure, pins).solutions
    fresh = build_chain(400).structure
    start = time.perf_counter()
    assert is_admissible(fresh, solution)
    assert not is_admissible(fresh, {**solution, "l_out.400": "A" if solution["l_out.400"] != "A" else "B"})
    assert time.perf_counter() - start < 0.2


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


CHAIN_THREE_DECIDING = (
    "c_in", "c_mid.2", "c_mid.3", "h_left.1", "h_left.2", "h_left.3", "l_in.1", "l_in.2", "l_in.3", "r_in.3",
)


@pytest.mark.parametrize(
    "structure, deciding",
    [
        (build_chain(3).structure, CHAIN_THREE_DECIDING),
        (reverse_time(build_chain(3)).structure, CHAIN_THREE_DECIDING),
        (lone_production().structure, ("c", "x")),
        (free_line().structure, ("w",)),  # one name: the getter gives the value itself, a str
        (Structure({}, {}), ()),
    ],
    ids=["chain:3", "reversed chain:3", "lone production", "free line", "empty"],
)
def test_the_sort_reads_every_edge_but_each_nodes_last(structure, deciding):
    order = memo(structure, solver._compile).order
    assert tuple(order({e: e for e in sorted(structure.edges)})) == deciding


def test_complete_sorts_on_the_deciding_edges_without_losing_the_canonical_order():
    assert complete(Structure({}, {}), {}) == solver.SolveResult([{}], 0)
    assert ["".join(a.values()) for a in complete(free_line().structure, {}).solutions] == ["A", "B", "C"]
    lone = complete(lone_production().structure, {}).solutions
    assert ["".join(a.values()) for a in lone] == ["AAA", "ABC", "ACB", "BAC", "BBB", "BCA", "CAB", "CBA", "CCC"]


def test_complete_is_deterministic():
    first = complete(CELL, {"c_in": "A"})
    second = complete(CELL, {"c_in": "A"})
    assert first.solutions == second.solutions
    assert first.explored == second.explored


@pytest.mark.parametrize(
    "partial, explored, solutions",
    [
        # each left annihilation and the last node are free: walked below once
        ({}, 3663, 28776),
        ({"h_left.2": "A", "l_out.3": "B"}, 933, 3220),
        # read at the last cell, so most of its dead ends sit at the last step
        ({"h_left.2": "A", "r_out.3": "B"}, 961, 3220),
    ],
)
def test_chain_three_search_effort_is_pinned(partial, explored, solutions):
    # the layout and the visit order decide `explored`; these figures pin it
    result = complete(build_chain(3).structure, partial)
    assert (result.explored, len(result.solutions)) == (explored, solutions)


def test_reversed_chain_three_search_effort_is_pinned():
    # fewer free nodes than forward, so more is walked below a choice
    result = complete(reverse_time(build_chain(3)).structure, {})
    assert (result.explored, len(result.solutions)) == (9951, 28776)


def counted_order(structure):
    """The node each step of the layout fills, matched by its edge ids."""
    walk = node_order(structure)
    node_of = {tuple(walk.ports[nid].values()): nid for nid in walk.depth}
    return [node_of[incident] for incident, _, _ in memo(structure, solver._compile).steps]


def test_the_layout_fills_chain_two_in_a_pinned_order():
    # the layout's node order decides `explored`; the pinned effort figures rest on it
    assert counted_order(build_chain(2).structure) == ["prod.1", "ann_l.1", "ann_r.1", "prod.2", "ann_l.2", "ann_r.2"]
    reversed_order = ["ann_l.1", "prod.1", "ann_r.1", "prod.2", "ann_l.2", "ann_r.2"]
    assert counted_order(reverse_time(build_chain(2)).structure) == reversed_order


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_the_free_steps_are_the_nodes_with_no_edge_to_a_later_node(k, reverse):
    structure = (reverse_time(build_chain(k)) if reverse else build_chain(k)).structure
    order = counted_order(structure)
    position = {nid: i for i, nid in enumerate(order)}
    reads_later = dict.fromkeys(order, False)
    for dst, srcs in node_order(structure).preds.items():
        for src in srcs:
            reads_later[src] |= position[dst] > position[src]
            reads_later[dst] |= position[src] > position[dst]
    free = {nid for nid, is_free in zip(order, memo(structure, solver._compile).free) if is_free}
    assert free == {nid for nid in order if not reads_later[nid]}
    if not reverse:
        assert free == {nid for nid in order if nid.startswith("ann_l")} | {order[-1]}


@pytest.mark.parametrize(
    "partial, moves", [({}, 9), ({"c": "A"}, 3), ({"c": "A", "x": "A"}, 1), ({"c": "A", "x": "A", "y": "B"}, 0)]
)
def test_a_one_step_layout_finds_each_move_of_its_step(partial, moves):
    structure = lone_production().structure
    assert validate_topology(structure) == [] and len(memo(structure, solver._compile).steps) == 1
    result = complete(structure, partial)
    assert (result.explored, len(result.solutions)) == (moves, moves)
    oracle = brute_force_complete(structure, partial)
    assert result.solutions == oracle and has_completion(structure, partial) == bool(oracle)


def test_has_completion_on_a_thousand_cells():
    assert has_completion(build_chain(1000).structure, {})


def test_has_completion_does_not_spread_free_wires():
    # each wire no node reads multiplies the completions by 3
    wire = lambda w: Edge(Endpoint(terminal=w, side=PAST), Endpoint(terminal=w, side=FUTURE))
    assert has_completion(Structure({}, {f"w{i}": wire(f"w{i}") for i in range(40)}), {})


def late_contradiction(k):
    """chain:K with its last left annihilation made {A, A, B}."""
    return build_chain(k).structure, {f"l_out.{k}": "A", f"h_left.{k}": "A", f"l_in.{k}": "B"}


def early_contradiction_reversed(k):
    """reverse_time(chain:K) with the node that was its first production
    made {A, A, B}."""
    return reverse_time(build_chain(k)).structure, {"c_in": "A", "h_left.1": "A", "h_right.1": "B"}


@pytest.mark.parametrize("family", [late_contradiction, early_contradiction_reversed])
def test_a_contradiction_costs_the_same_per_cell(family):
    # a depth-first search that re-enters dead frontiers grows about 20x
    # per added cell on both families
    effort = []
    for k in range(2, 31):
        structure, pins = family(k)
        assert not has_completion(structure, pins)
        result = complete(structure, pins)
        assert result.solutions == [] and count_completions(structure, pins) == 0
        effort.append(result.explored)
        if k > 3:  # fail fast: a regression here is exponential
            assert effort[-1] - effort[-2] == effort[-2] - effort[-3], effort


def test_count_on_400_cells_pinned_to_an_inhomogeneous_witness(chain_400_witness):
    scenario, pins = chain_400_witness
    assert count_completions(scenario.structure, pins) == 1


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


def test_count_chain_five():
    assert count_completions(build_chain(5).structure, {}) == 12_508_320


def test_count_matches_transfer_matrix_up_to_sixty_cells(chain_count):
    for k in range(1, 61):
        assert count_completions(build_chain(k).structure, {}) == chain_count(k), k


def test_count_on_400_unpinned_cells_is_exact(chain_count):
    count = count_completions(build_chain(400).structure, {})
    assert count == chain_count(400)
    assert len(str(count)) == 529


def test_count_keeps_a_narrow_frontier_on_reversed_chains():
    # a topological order would count every left production of a reversed
    # chain before any of its annihilations: a frontier as wide as the chain
    forward, backward = build_chain(100).structure, reverse_time(build_chain(100)).structure
    for structure in (forward, backward):
        steps = memo(structure, solver._compile).steps
        assert max(len(moves.project) for _, _, moves in steps) <= 2
    assert count_completions(backward, {}) == count_completions(forward, {})


def test_count_with_an_unread_wire():
    structure = wired_cell().structure
    assert count_completions(structure, {}) == 198 == len(brute_force_complete(structure, {}))
    assert count_completions(structure, {"w": "B"}) == 66 == len(brute_force_complete(structure, {"w": "B"}))


@pytest.mark.parametrize(
    "structure, partial",
    [
        (CELL, LINKED_HOMOGENEOUS_TOTAL),
        (CELL, {"c_in": "A", "h_left": "A", "h_right": "B"}),  # production {A, A, B}
        (CELL, {"h_left": "A", "l_in": "A", "l_out": "A", "h_right": "A", "r_in": "B"}),  # two homogeneous
        (build_chain(3).structure, {"c_mid.2": "A", "l_in.2": "A", "h_left.2": "A", "l_out.2": "B"}),
    ],
)
def test_count_of_contradictory_pins_is_zero(structure, partial):
    assert count_completions(structure, partial) == 0
    assert not has_completion(structure, partial)


def test_count_of_a_deep_contradiction_is_zero(chain_400_witness):
    scenario, pins = chain_400_witness
    # the witness's left annihilation 200 is inhomogeneous, so its output
    # differs from its input l_in.200
    assert count_completions(scenario.structure, dict(pins, **{"l_out.200": pins["l_in.200"]})) == 0


def test_complete_rejects_unknown_edge():
    with pytest.raises(ValueError, match="unknown"):
        complete(CELL, {"ghost": "A"})


# --- the two routes must agree ---


@pytest.mark.parametrize(
    "scenario", [build_h_cell(), diamond(), free_line(), reverse_time(build_h_cell()), lone_production()]
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


def cyclic() -> Structure:
    nodes = {"p": PRODUCTION, "a": ANNIHILATION}
    edges = {
        "e1": Edge(Endpoint("p", "out1"), Endpoint("a", "in1")),
        "e2": Edge(Endpoint("a", "out1"), Endpoint("p", "in1")),
        "e3": Edge(Endpoint(terminal="e3", side=PAST), Endpoint("a", "in2")),
        "e4": Edge(Endpoint("p", "out2"), Endpoint(terminal="e4", side=FUTURE)),
    }
    return Structure(nodes, edges)


# --- what is derived from a structure, kept on the structure ---


@pytest.mark.parametrize(
    "duplicate", [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))], ids=["copy", "deepcopy", "pickle"]
)
def test_copies_and_pickles_start_with_nothing_derived(duplicate):
    structure = build_chain(3).structure
    partial = {"c_in": "B", "l_out.3": "A"}
    counts = count_completions(structure, {}), count_completions(structure, partial)
    assert len(structure._derived) == 2  # walk and layout
    twin = duplicate(structure)
    assert twin == structure and twin is not structure
    assert twin._derived == {}
    assert (count_completions(twin, {}), count_completions(twin, partial)) == counts
    assert least_stranding_input(twin, {}, ["c_in"]) == least_stranding_input(structure, {}, ["c_in"])


@pytest.mark.parametrize("search", [complete, count_completions, has_completion])
@pytest.mark.parametrize("partial", [{"ghost": "A"}, {"c_in": "X"}])
def test_cached_plan_still_checks_the_partial(search, partial):
    structure = build_chain(2).structure
    search(structure, {})
    for _ in range(2):
        with pytest.raises(ValueError):
            search(structure, partial)


@pytest.mark.parametrize("search", [complete, count_completions, has_completion])
@pytest.mark.parametrize(
    "partial",
    [
        {"ghost": "A", "alpha": "B"},
        {"c_in": "X", "l_in": "Q"},
        {"ghost": "X", "c_in": "Y"},
        {"c_in": 0, "r_in": "Y"},
        {"c_in": None, "l_in": [1]},
        {"c_in": ["A"]},  # unhashable, so no set test can hold it
        {0: ["A"], "c_in": "A"},
    ],
)
def test_engine_rejects_a_partial_with_the_oracle_message(search, partial):
    # the engine checks pins against its plan; the oracle builds its own sets
    with pytest.raises(ValueError) as oracle:
        brute_force_complete(CELL, partial)
    with pytest.raises(ValueError, match=f"^{re.escape(str(oracle.value))}$"):
        search(CELL, partial)


non_flavors = st.one_of(
    st.integers(),
    st.none(),
    st.floats(),
    st.text(max_size=3).filter(lambda text: text not in FLAVORS),
    st.lists(st.integers(), max_size=2),
)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_non_flavor_pin_of_any_type_is_a_value_error(data):
    edges = sorted(CELL.edges)
    bad = data.draw(st.dictionaries(st.sampled_from(edges), non_flavors, min_size=1, max_size=3))
    good = data.draw(st.dictionaries(st.sampled_from(edges), st.sampled_from(FLAVORS), max_size=4))
    partial = {**good, **bad}
    calls = [functools.partial(f, CELL) for f in (complete, has_completion, count_completions)]
    for call in calls + [functools.partial(render, build_h_cell())]:
        with pytest.raises(ValueError, match="^assignment contains non-flavor values: ") as error:
            call(partial)
        assert all(repr(value) in str(error.value) for value in bad.values())


@pytest.mark.parametrize(
    "partial, named",
    [
        ({0: "A"}, "0"),
        ({1: "A", "x": "B"}, "x, 1"),  # ordered by how they print
        ({None: "A"}, "None"),
        ({"ghost": "A", "alpha": "B"}, "alpha, ghost"),
    ],
)
def test_an_edge_that_is_not_a_string_is_a_value_error(partial, named):
    with pytest.raises(ValueError, match=f"^assignment mentions unknown edges: {re.escape(named)}$"):
        has_completion(CELL, partial)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_an_unknown_edge_of_any_type_is_a_value_error(data):
    keys = st.one_of(st.integers(), st.none(), st.tuples(st.integers()), st.text(max_size=3))
    unknown = keys.filter(lambda key: key not in CELL.edges)
    bad = data.draw(st.dictionaries(unknown, st.sampled_from(FLAVORS), min_size=1))
    good = data.draw(st.dictionaries(st.sampled_from(sorted(CELL.edges)), st.sampled_from(FLAVORS), max_size=4))
    partial = {**good, **bad}
    calls = [functools.partial(f, CELL) for f in (complete, has_completion, count_completions)]
    calls += [lambda p: least_stranding_input(CELL, p, ["c_in"]), functools.partial(render, build_h_cell())]
    for call in calls:
        with pytest.raises(ValueError, match="^assignment mentions unknown edges: ") as error:
            call(partial)
        assert all((key if isinstance(key, str) else repr(key)) in str(error.value) for key in bad)


def test_counting_layout_is_compiled_once(monkeypatch):
    layouts = []
    compile_layout = solver._compile
    monkeypatch.setattr(solver, "_compile", lambda structure: layouts.append(structure) or compile_layout(structure))
    structure = build_chain(100).structure
    assert complete(structure, {"c_in": "A", "h_left.1": "A", "h_right.1": "B"}).solutions == []
    layout = memo(structure, solver._compile)
    assert has_completion(structure, {})
    count_completions(structure, {})
    count_completions(structure, {"c_in": "A"})
    assert least_stranding_input(structure, {}, ["c_in", "l_in.1"]) is None
    assert memo(structure, solver._compile) is layout
    assert len(layouts) == 1
    # all four searches keep the walk and the one layout, and nothing else
    assert set(structure._derived) == {structure_module._walk, solver._compile}
    assert {e for incident, _, _ in layout.steps for e in incident} <= set(structure.edges)
    # the same few moves tables serve cell after cell
    assert len({id(moves) for _, _, moves in layout.steps}) <= 6


@pytest.mark.parametrize("search", [complete, count_completions, has_completion])
def test_cyclic_structure_raises_on_every_call(search):
    structure = cyclic()
    for _ in range(2):
        with pytest.raises(InvalidStructureError, match="cycle"):
            search(structure, {})
    assert solver._compile not in structure._derived


def broken_cell(change) -> Structure:
    """The plain cell's structure with `change(nodes, edges)` applied to fresh copies of its maps."""
    cell = build_h_cell().structure
    nodes, edges = dict(cell.nodes), dict(cell.edges)
    change(nodes, edges)
    return Structure(nodes, edges)


INVALID_CELLS = {
    "missing port": lambda nodes, edges: edges.pop("r_out"),
    "node with no edges": lambda nodes, edges: nodes.update(lone=PRODUCTION),
    "alternation break": lambda nodes, edges: nodes.update(prod=ANNIHILATION),
    "edge to a missing node": lambda nodes, edges: edges.update(h_left=Edge(Endpoint("prod", "out1"),
                                                                             Endpoint("ghost", "in1"))),
    # `r_out` turned back into the production's input: every port is used once, but prod -> ann_r -> prod
    "cycle": lambda nodes, edges: edges.update(c_in=edges.pop("r_out")._replace(target=Endpoint("prod", "in1"))),
    # inputs `reverse_time` has no mirror for
    "port in3": lambda nodes, edges: edges.update(c_in=Edge(Endpoint(terminal="c_in", side=PAST),
                                                            Endpoint("prod", "in3"))),
    "side sideways": lambda nodes, edges: edges.update(c_in=Edge(Endpoint(terminal="c_in", side="sideways"),
                                                                 Endpoint("prod", "in1"))),
    "kind quark": lambda nodes, edges: nodes.update(prod="quark"),
}

#: every reader of a structure's graph, as a call on the structure
READERS = {
    "complete": lambda s: complete(s, {}),
    "has_completion": lambda s: has_completion(s, {}),
    "count_completions": lambda s: count_completions(s, {}),
    "least_stranding_input": lambda s: least_stranding_input(s, {}, sorted(s.edges)),
    "check_all_inputs": lambda s: check_all_inputs(Scenario.derive(s)),
    "is_admissible": lambda s: is_admissible(s, dict.fromkeys(s.edges, "A")),
    "brute_force_complete": lambda s: brute_force_complete(s, {}),
    "longest_node_path": longest_node_path,
    "render": lambda s: render(Scenario.derive(s)),
    "reverse_time": lambda s: reverse_time(Scenario.derive(s)),
}


@pytest.mark.parametrize("change", INVALID_CELLS.values(), ids=INVALID_CELLS)
def test_every_reader_refuses_an_invalid_structure_with_its_report(change):
    structure = broken_cell(change)
    violations = validate_topology(structure)
    assert violations
    for name, read in READERS.items():
        for _ in range(2):  # the walk is kept, and each call raises again
            with pytest.raises(InvalidStructureError) as caught:
                read(structure)
            assert caught.value.violations == violations, name
    assert validate_topology(structure) == violations
    assert solver._compile not in structure._derived


def test_value_equal_structures_give_identical_results():
    first, second = build_chain(2).structure, build_chain(2).structure
    assert first == second and first is not second
    for partial in ({}, {"c_in": "B", "l_out.2": "A"}):
        a, b = complete(first, partial), complete(second, partial)
        assert (a.solutions, a.explored) == (b.solutions, b.explored)
        assert count_completions(first, partial) == count_completions(second, partial)


def test_free_line_completions():
    structure = free_line().structure
    result = complete(structure, {})
    # no node, so the layout has no step and the walk examines no move
    assert ([a["w"] for a in result.solutions], result.explored) == (["A", "B", "C"], 0)


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


# --- search against the brute-force oracle on deeper structures ---

ORACLE_STRUCTURES = {
    "chain:1": build_chain(1).structure,
    "chain:2": build_chain(2).structure,
    "reversed chain:2": reverse_time(build_chain(2)).structure,
    "diamond": diamond().structure,
    "wired cell": wired_cell().structure,
    "lone production": lone_production().structure,
}


@functools.lru_cache(maxsize=None)
def all_admissible(name):
    # one full scan per structure; a test that needs many pinned answers
    # filters it by the pins, which equals a pinned oracle call (held below)
    # and is cheaper than a scan of the 3^(13 - pins) extensions per example
    return brute_force_complete(ORACLE_STRUCTURES[name], {})


@pytest.mark.parametrize(
    "scenario",
    [build_h_cell(), reverse_time(build_h_cell()), wired_cell(), lone_production(), diamond()],
    ids=["cell", "reversed cell", "wired cell", "lone production", "diamond"],
)
def test_the_oracle_keeps_the_totals_is_admissible_accepts(scenario):
    structure = scenario.structure
    edges = sorted(structure.edges)
    totals = (dict(zip(edges, values)) for values in itertools.product(FLAVORS, repeat=len(edges)))
    accepted = [list(a.items()) for a in totals if is_admissible(structure, a)]
    assert accepted == [list(a.items()) for a in brute_force_complete(structure, {})]


@pytest.mark.parametrize("name", ["chain:2", "reversed chain:2"])
@pytest.mark.parametrize(
    "partial, found",
    [
        ({"c_mid.2": "B"}, True),
        ({"c_in": "A", "l_in.1": "C", "r_out.2": "B"}, True),
        ({"h_left.2": "A", "l_in.2": "A", "l_out.2": "B"}, False),  # ann_l.2 would read {A, A, B}
    ],
    ids=["one pin", "three pins", "contradiction"],
)
def test_the_pinned_oracle_is_the_unpinned_scan_filtered_by_the_pins(name, partial, found):
    pinned = brute_force_complete(ORACLE_STRUCTURES[name], partial)
    filtered = [a for a in all_admissible(name) if all(a[e] == v for e, v in partial.items())]
    assert [list(a.items()) for a in pinned] == [list(a.items()) for a in filtered]
    assert bool(pinned) == found


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(ORACLE_STRUCTURES)), st.data())
def test_search_matches_oracle_under_random_pins(name, data):
    structure = ORACLE_STRUCTURES[name]
    partial = data.draw(st.dictionaries(st.sampled_from(sorted(structure.edges)), st.sampled_from(FLAVORS)))
    solutions = complete(structure, partial).solutions
    if name == "chain:1":
        assert solutions == brute_force_complete(structure, partial)
    else:
        assert solutions == [a for a in all_admissible(name) if all(a[e] == v for e, v in partial.items())]
    assert count_completions(structure, partial) == len(solutions)
    assert has_completion(structure, partial) == bool(solutions)


def most_fillings(solutions, edges):
    """The most values the `edges` take among solutions equal elsewhere."""
    fillings: dict[tuple, set] = {}
    for a in solutions:
        rest = tuple(v for e, v in a.items() if e not in edges)
        fillings.setdefault(rest, set()).add(tuple(a[e] for e in edges))
    return max(map(len, fillings.values()), default=0)


@pytest.mark.parametrize("name", ["chain:1", "reversed chain:1", "chain:2", "reversed chain:2"])
def test_a_free_node_matches_the_oracle_with_solutions_below_and_with_none(name):
    structure = ORACLE_STRUCTURES.get(name) or reverse_time(build_chain(1)).structure

    def oracle(partial):
        if name.endswith(":1"):
            return brute_force_complete(structure, partial)
        return [a for a in all_admissible(name) if all(a[e] == v for e, v in partial.items())]

    layout = memo(structure, solver._compile)
    first = next(incident for (incident, _, _), free in zip(layout.steps, layout.free) if free)
    last = layout.steps[-1][0]
    walk = node_order(structure)
    terminals = [e for e in last if sum(e in ports.values() for ports in walk.ports.values()) == 1]
    cases = [
        # the first free node keeps 2-3 fillings, each with the same solutions below
        ({}, True),
        ({first[0]: "A"}, True),
        # the last node made {A, A, B}: nothing below any free node
        (dict(zip(last, "AAB")), False),
        # the last node's terminals pinned apart: its third edge must read the
        # third flavor, so a free node above it is dead on the other values
        (dict(zip(terminals, "AB")), True),
    ]
    for partial, found in cases:
        solutions = complete(structure, partial).solutions
        assert solutions == oracle(partial) and bool(solutions) == found, partial
        assert count_completions(structure, partial) == len(solutions)
        assert has_completion(structure, partial) == found
    for partial, _ in cases[:2]:
        assert 2 <= most_fillings(complete(structure, partial).solutions, first) <= 3


#: too many edges for a brute-force scan; held to chains composed from the cell's brute-force solutions
COMPOSED_STRUCTURES = {"chain:3": build_chain(3).structure, "reversed chain:3": reverse_time(build_chain(3)).structure}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(COMPOSED_STRUCTURES)), st.data())
def test_search_matches_composed_cells_under_random_pins(chain_solutions, name, data):
    structure = COMPOSED_STRUCTURES[name]
    partial = data.draw(st.dictionaries(st.sampled_from(sorted(structure.edges)), st.sampled_from(FLAVORS), min_size=1))
    solutions = complete(structure, partial).solutions
    assert solutions == chain_solutions(3, partial)
    assert count_completions(structure, partial) == len(solutions)
    assert has_completion(structure, partial) == bool(solutions)


@pytest.mark.parametrize("name", sorted(COMPOSED_STRUCTURES))
def test_a_branch_point_yielding_one_completion_stays_live(chain_solutions, name):
    # a walk that marks a branch point dead once it has yielded at most one
    # completion keeps 858 of these 920
    partial = {"l_out.3": "A", "r_in.3": "A", "h_right.3": "A"}
    solutions = complete(COMPOSED_STRUCTURES[name], partial).solutions
    assert len(solutions) == 920 and solutions == chain_solutions(3, partial)


@pytest.mark.parametrize("k, count", [(1, 66), (2, 1380), (3, 28776)])
def test_reversing_time_keeps_the_solutions(chain_solutions, k, count):
    solutions = chain_solutions(k, {})
    assert len(solutions) == count
    assert complete(build_chain(k).structure, {}).solutions == solutions
    assert complete(reverse_time(build_chain(k)).structure, {}).solutions == solutions


# --- the all-inputs decision against one search per input ---

RELABELLED = {
    "h-cell": build_h_cell(),
    "diamond": diamond(),
    "wired cell": wired_cell(),
    "chain:2": build_chain(2),
    "reversed chain:2": reverse_time(build_chain(2)),
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(RELABELLED)), st.data())
def test_all_inputs_check_matches_enumeration_on_relabelled_roles(sweep_by_enumeration, name, data):
    # hidden or observation edges read as interventions make real
    # counterexamples, e.g. c_in = h_left = l_in = A on the cell
    base = RELABELLED[name]
    others = sorted(e for e, role in base.roles.items() if role != INTERVENTION)
    extra = data.draw(st.lists(st.sampled_from(others), min_size=1, max_size=3, unique=True))
    scenario = Scenario(base.structure, {**base.roles, **dict.fromkeys(extra, INTERVENTION)})
    report = check_all_inputs(scenario)
    found = None if report.counterexample is None else report.counterexample[1]
    assert (report.checked, found) == sweep_by_enumeration(scenario)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(RELABELLED)), st.data())
def test_least_stranding_input_matches_enumeration(name, data):
    # forall may repeat an edge or pin one in partial; partial may pin any edge
    structure = RELABELLED[name].structure
    edges = sorted(structure.edges)
    forall = data.draw(st.lists(st.sampled_from(edges), max_size=6))
    partial = data.draw(st.dictionaries(st.sampled_from(edges), st.sampled_from(FLAVORS), max_size=3))
    chosen = sorted(set(forall))
    free = [e for e in chosen if e not in partial]
    pins = ({**partial, **dict(zip(free, choice))} for choice in itertools.product(FLAVORS, repeat=len(free)))
    least = next(({e: p[e] for e in chosen} for p in pins if not has_completion(structure, p)), None)
    assert least_stranding_input(structure, partial, forall) == least


@pytest.mark.parametrize(
    "partial, forall",
    [({}, ["ghost"]), ({"alpha": "A"}, ["c_in", "ghost"]), ({"c_in": "X"}, ["l_in"]), ({"c_in": "X"}, ["ghost"])],
)
def test_stranding_decision_rejects_edges_with_the_search_message(partial, forall):
    with pytest.raises(ValueError) as search:
        has_completion(CELL, {**dict.fromkeys(forall, "A"), **partial})
    with pytest.raises(ValueError, match=f"^{re.escape(str(search.value))}$"):
        least_stranding_input(CELL, partial, forall)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.integers(-1, 1), st.none(), st.tuples(st.sampled_from(["c_in", "x"])),
                          st.sampled_from(["c_in", "l_in", "ghost"])), min_size=1, max_size=4))
def test_stranding_decision_rejects_unknown_edges_of_any_type(forall):
    # the edges are checked before they are sorted, so mixed types are a ValueError, not a TypeError
    assume(any(e not in CELL.edges for e in forall))
    with pytest.raises(ValueError) as search:
        has_completion(CELL, dict.fromkeys(forall, "A"))
    with pytest.raises(ValueError, match=f"^{re.escape(str(search.value))}$"):
        least_stranding_input(CELL, {}, forall)


def test_stranding_decision_reads_pins_and_choices():
    assert least_stranding_input(CELL, {}, ["c_in", "l_in", "r_in"]) is None
    # h_left = l_in = A
    assert least_stranding_input(CELL, {"c_in": "A"}, ["h_left", "l_in"]) == {"h_left": "A", "l_in": "A"}
    assert least_stranding_input(CELL, {"c_in": "A", "l_in": "B"}, ["h_left"]) is None
    # a pinned edge is not chosen again, and a contradiction strands anyway
    assert least_stranding_input(CELL, {"c_in": "A", "h_left": "B"}, ["h_left", "l_in"]) is None
    assert least_stranding_input(CELL, LINKED_HOMOGENEOUS_TOTAL, []) is not None
    assert least_stranding_input(free_line().structure, {}, ["w"]) is None
