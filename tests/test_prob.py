import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helsinki.model import ALL_PERMUTATIONS, FLAVORS, apply_permutation
from helsinki.prob import (
    CompletionDistribution,
    EmptySupportError,
    cell_distribution,
    cell_signalling_score,
    completion_distribution,
    epistemic_state,
    marginal,
    signalling_score,
    total_variation,
)
from helsinki.solver import complete, count_completions
from helsinki.structure import (
    FUTURE,
    PAST,
    Edge,
    Endpoint,
    INTERVENTION,
    OBSERVATION,
    Scenario,
    Structure,
    build_chain,
    build_h_cell,
    intervention_edges,
)

AA, BC, CB = ("A", "A"), ("B", "C"), ("C", "B")
CELL = build_h_cell()

THIRD = Fraction(1, 3)
HALF = Fraction(1, 2)
ZERO = Fraction(0)
ONE = Fraction(1)


def inputs(left, center, right):
    return {"l_in": left, "c_in": center, "r_in": right}


def test_uniform_over_three_completions():
    dist = completion_distribution(CELL, inputs("B", "A", "B"))
    assert [p for _, p in dist.support] == [THIRD, THIRD, THIRD]
    assert sum(p for _, p in dist.support) == ONE


def test_uniform_over_two_completions():
    dist = completion_distribution(CELL, inputs("A", "A", "A"))
    assert [p for _, p in dist.support] == [HALF, HALF]


def test_single_atom_when_hidden_pinned():
    pinned = dict(inputs("B", "A", "C"), h_left="A", h_right="A")
    dist = completion_distribution(CELL, pinned)
    assert len(dist.support) == 1
    assert dist.support[0][1] == ONE
    assert dist.support[0][0]["l_out"] == "C"
    assert dist.support[0][0]["r_out"] == "B"


def test_empty_support_raises():
    # the homogeneous hidden state clashes with a matching wing input
    pinned = dict(inputs("A", "A", "A"), h_left="A", h_right="A")
    with pytest.raises(EmptySupportError):
        completion_distribution(CELL, pinned)


def test_inputs_must_cover_interventions():
    with pytest.raises(ValueError, match="r_in"):
        completion_distribution(CELL, {"l_in": "B", "c_in": "A"})


def test_marginal_uniform():
    dist = completion_distribution(CELL, inputs("B", "A", "B"))
    assert marginal(dist, "l_out") == {"A": THIRD, "B": THIRD, "C": THIRD}


def test_marginal_skewed():
    dist = completion_distribution(CELL, inputs("B", "A", "A"))
    assert marginal(dist, "l_out") == {"A": HALF, "B": HALF, "C": ZERO}


def test_marginal_point_mass_on_pinned_edge():
    pinned = dict(inputs("B", "A", "C"), h_left="A", h_right="A")
    dist = completion_distribution(CELL, pinned)
    assert marginal(dist, "h_left") == {"A": ONE, "B": ZERO, "C": ZERO}


def test_marginal_unknown_edge():
    dist = completion_distribution(CELL, inputs("B", "A", "B"))
    with pytest.raises(ValueError):
        marginal(dist, "ghost")


def test_marginal_commutes_with_permutation():
    base_inputs = inputs("B", "A", "C")
    for p in ALL_PERMUTATIONS:
        direct = marginal(completion_distribution(CELL, apply_permutation(p, base_inputs)), "l_out")
        original = marginal(completion_distribution(CELL, base_inputs), "l_out")
        assert direct == {p[f]: original[f] for f in FLAVORS}


weights = st.one_of(
    st.integers(-20, 20),
    st.fractions(min_value=-5, max_value=5, max_denominator=60),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_marginal_equals_the_per_solution_fraction_sum(marginal_by_fractions, data):
    # mixed denominators, zero and negative weights, and often a flavor that never occurs
    present = data.draw(st.lists(st.sampled_from(FLAVORS), min_size=1, max_size=3, unique=True))
    support = data.draw(st.lists(st.tuples(st.sampled_from(present), weights), min_size=1, max_size=12))
    dist = CompletionDistribution([({"e": flavor}, weight) for flavor, weight in support])
    result = marginal(dist, "e")
    assert result == marginal_by_fractions(dist, "e")
    assert list(result) == list(FLAVORS)
    assert all(type(p) is Fraction for p in result.values())


def test_marginal_rejects_a_float_weight():
    dist = CompletionDistribution([({"e": "A"}, Fraction(1, 2)), ({"e": "B"}, 0.5)])
    with pytest.raises(TypeError, match=r"^weight 0\.5 "):
        marginal(dist, "e")


def test_marginals_on_chain_2_are_ratios_of_counts():
    # an independent route: the counting dynamic program never enumerates
    chain = build_chain(2)
    edges = intervention_edges(chain)
    for combo in itertools.product(FLAVORS, repeat=len(edges)):
        pins = dict(zip(edges, combo))
        dist = completion_distribution(chain, pins)
        total = count_completions(chain.structure, pins)
        for edge in sorted(e for e, role in chain.roles.items() if role == OBSERVATION):
            assert marginal(dist, edge) == {
                f: Fraction(count_completions(chain.structure, {**pins, edge: f}), total) for f in FLAVORS
            }


def test_total_variation():
    assert total_variation({"A": THIRD, "B": THIRD, "C": THIRD}, {"A": HALF, "B": HALF, "C": ZERO}) == THIRD
    assert total_variation({"A": ONE, "B": ZERO, "C": ZERO}, {"A": ONE, "B": ZERO, "C": ZERO}) == ZERO


def test_signalling_score_left_output_vs_right_input():
    assert signalling_score(CELL, "l_out", "r_in", {"l_in": "B", "c_in": "A"}) == THIRD


def test_signalling_score_mirrored_wing():
    assert signalling_score(CELL, "r_out", "l_in", {"r_in": "B", "c_in": "A"}) == THIRD


def test_signalling_score_zero_for_detached_target():
    # second component: a production feeding both inputs of an annihilation;
    # its output is fixed by its own center input, so the remote setting of
    # the cell next door cannot move it
    cell = build_h_cell()
    nodes = dict(cell.structure.nodes, p2="production", a2="annihilation")
    edges = dict(cell.structure.edges)
    edges["c2"] = Edge(Endpoint(terminal="c2", side=PAST), Endpoint("p2", "in1"))
    edges["x2"] = Edge(Endpoint("p2", "out1"), Endpoint("a2", "in1"))
    edges["y2"] = Edge(Endpoint("p2", "out2"), Endpoint("a2", "in2"))
    edges["z2"] = Edge(Endpoint("a2", "out1"), Endpoint(terminal="z2", side=FUTURE))
    scenario = Scenario.derive(Structure(nodes, edges))
    context = {"c_in": "A", "l_in": "B", "c2": "A"}
    assert signalling_score(scenario, "z2", "r_in", context) == ZERO


def test_signalling_score_names_the_remote_value_with_no_completion():
    # a hidden edge read as an intervention: c_in = h_left = l_in = A leaves
    # two homogeneous nodes linked, whatever r_in is
    scenario = Scenario(CELL.structure, {**CELL.roles, "h_left": INTERVENTION})
    with pytest.raises(EmptySupportError, match=r"^remote value A: no admissible completion"):
        signalling_score(scenario, "r_out", "r_in", {"c_in": "A", "h_left": "A", "l_in": "A"})


def test_signalling_score_validates_roles():
    with pytest.raises(ValueError, match="intervention"):
        signalling_score(CELL, "l_out", "h_left", {"l_in": "B", "c_in": "A", "r_in": "B"})
    with pytest.raises(ValueError, match="observation"):
        signalling_score(CELL, "h_left", "r_in", {"l_in": "B", "c_in": "A"})
    with pytest.raises(ValueError, match="context"):
        signalling_score(CELL, "l_out", "r_in", {"l_in": "B"})


def test_epistemic_nothing_known():
    assert epistemic_state("A") == {AA: Fraction(4, 9), BC: ONE, CB: ONE}


def test_epistemic_both_wings_known():
    assert epistemic_state("A", {"l_in": "B", "r_in": "B"}) == {AA: ONE, BC: ONE, CB: ONE}


def test_epistemic_one_wing_known():
    assert epistemic_state("A", {"r_in": "A"}) == {AA: ZERO, BC: ONE, CB: ONE}
    assert epistemic_state("A", {"l_in": "B"}) == {AA: Fraction(2, 3), BC: ONE, CB: ONE}


def test_epistemic_weights_shift_with_future_settings():
    # the weight of a hidden state is not independent of which settings
    # the observers will later choose
    assert epistemic_state("A", {"r_in": "A"})[AA] != epistemic_state("A", {"r_in": "B"})[AA]


def test_epistemic_rejects_unknown_keys():
    with pytest.raises(ValueError):
        epistemic_state("A", {"c_in": "A"})


def test_epistemic_rejects_non_flavor_settings():
    with pytest.raises(ValueError, match=r"^known\['l_in'\]: unknown flavor 'Z'$"):
        epistemic_state("A", {"l_in": "Z"})


def test_support_matches_solver_solutions():
    result = complete(CELL.structure, inputs("B", "A", "C"))
    dist = completion_distribution(CELL, inputs("B", "A", "C"))
    assert [a for a, _ in dist.support] == result.solutions


# --- the cell route: the cell table in place of the engine ---


def outcome(call, *args):
    """What a call gives: its value, or the type and message of what it raised."""
    try:
        return call(*args)
    except Exception as exc:  # any type: the two routes must raise the same
        return type(exc), str(exc)


def cell_cases():
    """Every input triple, bare and with each single extra pin."""
    for t in itertools.product(FLAVORS, repeat=3):
        yield inputs(*t)
        for edge in sorted(CELL.roles):
            for f in FLAVORS:
                yield {**inputs(*t), edge: f}


def test_the_cell_route_gives_the_scenario_routes_distribution():
    cases = list(cell_cases())
    assert len(cases) == 27 * (1 + 7 * 3)
    empty = 0
    for pins in cases:
        got, want = outcome(cell_distribution, pins), outcome(completion_distribution, CELL, pins)
        assert got == want, pins
        if not isinstance(want, CompletionDistribution):
            assert want[0] is EmptySupportError
            empty += 1
            continue
        assert [list(a) for a, _ in got.support] == [list(a) for a, _ in want.support]
        assert all(type(a) is dict for a, _ in got.support)
    assert 0 < empty < len(cases)


@pytest.mark.parametrize("pins", [
    {"l_in": "D", "c_in": "A", "r_in": "B"},
    {"l_in": "B", "c_in": "A", "r_in": "B", "h_left": "Z"},
    {"l_in": "B", "c_in": "A", "r_in": "B", "ghost": "A"},
    {"l_in": "B", "c_in": "A", "r_in": "B", "ghost": "A", 3: "D"},
    {"l_in": "B", "c_in": "A"},
    {"l_in": "B", "ghost": "D"},
    {},
], ids=["non-flavor-input", "non-flavor-pin", "unknown-edge", "unknown-and-non-flavor", "missing-input",
        "missing-and-unknown", "nothing"])
def test_the_cell_route_raises_what_the_scenario_route_raises(pins):
    got, want = outcome(cell_distribution, pins), outcome(completion_distribution, CELL, pins)
    assert want[0] is ValueError
    assert got == want


def test_the_cell_route_gives_the_scenario_routes_signalling_score():
    cases = 0
    for target in ("l_out", "r_out"):
        for remote in intervention_edges(CELL):
            others = [e for e in intervention_edges(CELL) if e != remote]
            for values in itertools.product(FLAVORS, repeat=2):
                context = dict(zip(others, values))
                assert cell_signalling_score(target, remote, context) == signalling_score(
                    CELL, target, remote, context
                ), (target, remote, context)
                cases += 1
    assert cases == 2 * 3 * 9


@pytest.mark.parametrize("target, remote, context", [
    ("l_out", "h_left", {"l_in": "B", "c_in": "A", "r_in": "B"}),
    ("h_left", "r_in", {"l_in": "B", "c_in": "A"}),
    ("l_out", "r_in", {"l_in": "B"}),
], ids=["remote-not-intervention", "target-not-observation", "context"])
def test_the_cell_route_raises_the_scenario_routes_role_errors(target, remote, context):
    want = outcome(signalling_score, CELL, target, remote, context)
    assert want[0] is ValueError
    assert outcome(cell_signalling_score, target, remote, context) == want
