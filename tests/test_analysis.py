import itertools
import random
import re
from unittest import mock

import pytest

from helsinki import analysis, loops, prob, solver, structure
from helsinki.analysis import (
    ALL_INPUT_TRIPLES,
    ConsistencyReport,
    InputTriple,
    NonlocalWitness,
    RetroWitness,
    Transform,
    apply_transform,
    canonicalize_inputs,
    check_all_inputs,
    consistency_sweep,
    hidden_state_set,
    input_classes,
    nonlocality_witnesses,
    reflect_triple,
    retro_witnesses,
    state_table,
)
from helsinki.cli import run
from helsinki.model import ALL_PERMUTATIONS, FLAVORS, PRODUCTION, production_completions
from helsinki.solver import brute_force_complete, count_completions, has_completion, is_admissible
from helsinki.structure import INTERVENTION, Scenario, build_chain, build_h_cell, intervention_edges, reverse_time

AA, BC, CB = ("A", "A"), ("B", "C"), ("C", "B")


# --- hidden states per input choice ---


def test_hidden_set_equal_wings():
    assert hidden_state_set(InputTriple("B", "A", "B")) == {AA, BC, CB}


def test_hidden_set_wing_matches_center():
    assert hidden_state_set(InputTriple("A", "A", "B")) == {BC, CB}


def test_hidden_set_distinct_wings():
    assert hidden_state_set(InputTriple("B", "A", "C")) == {AA, BC, CB}


def test_hidden_set_never_empty():
    for t in ALL_INPUT_TRIPLES:
        assert hidden_state_set(t)


def test_hidden_set_bounded_by_center():
    for t in ALL_INPUT_TRIPLES:
        assert hidden_state_set(t) <= set(production_completions(t.center))


def test_hidden_set_equivariant():
    for t in ALL_INPUT_TRIPLES:
        base = hidden_state_set(t)
        for p in ALL_PERMUTATIONS:
            mapped = InputTriple(p[t.left], p[t.center], p[t.right])
            assert hidden_state_set(mapped) == {(p[x], p[y]) for x, y in base}
        assert hidden_state_set(reflect_triple(t)) == {(y, x) for x, y in base}


# --- canonical classes ---


@pytest.mark.parametrize(
    "triple,expected",
    [
        (("C", "B", "C"), ("B", "A", "B")),
        (("A", "A", "B"), ("A", "A", "B")),
        (("C", "B", "A"), ("B", "A", "C")),
        (("A", "A", "A"), ("A", "A", "A")),
        (("B", "C", "A"), ("B", "A", "C")),
    ],
)
def test_canonicalize_examples(triple, expected):
    canonical, _ = canonicalize_inputs(InputTriple(*triple))
    assert canonical == InputTriple(*expected)


@pytest.mark.parametrize("triple", [("D", "A", "B"), ("A", "D", "B"), ("A", "B", "D")])
def test_canonicalize_rejects_a_non_flavor(triple):
    with pytest.raises(ValueError, match="unknown flavor 'D'"):
        canonicalize_inputs(InputTriple(*triple))


def test_canonicalize_transform_realizes_image():
    for t in ALL_INPUT_TRIPLES:
        canonical, transform = canonicalize_inputs(t)
        assert apply_transform(t, transform) == canonical


def test_canonicalize_idempotent():
    for t in ALL_INPUT_TRIPLES:
        canonical, _ = canonicalize_inputs(t)
        again, _ = canonicalize_inputs(canonical)
        assert again == canonical


def test_canonicalize_constant_on_orbits():
    for t in ALL_INPUT_TRIPLES:
        canonical, _ = canonicalize_inputs(t)
        for p in ALL_PERMUTATIONS:
            for reflected in (False, True):
                image = apply_transform(t, Transform(p, reflected))
                assert canonicalize_inputs(image)[0] == canonical


def test_input_classes():
    assert [t.label() for t in input_classes()] == ["A_A_A", "A_A_B", "B_A_B", "B_A_C"]


# --- the state table ---


def test_state_table_cells():
    table = state_table()
    assert table.columns == (AA, BC, CB)
    assert [t.label() for t in table.rows] == ["A_A_A", "A_A_B", "B_A_B", "B_A_C"]
    expected_aa = {"A_A_A": False, "A_A_B": False, "B_A_B": True, "B_A_C": True}
    for t, allowed in table.rows.items():
        assert allowed[AA] == expected_aa[t.label()]
        assert allowed[BC] and allowed[CB]


# --- counterfactual witnesses ---


def test_retro_witness_equal_wings_to_matching():
    witness = RetroWitness(
        InputTriple("B", "A", "B"), "right", "A", frozenset({AA}), frozenset()
    )
    assert witness in retro_witnesses()


def test_retro_witness_distinct_wings():
    witness = RetroWitness(
        InputTriple("B", "A", "C"), "left", "A", frozenset({AA}), frozenset()
    )
    assert witness in retro_witnesses()


def test_retro_witnesses_nonempty_and_sized():
    witnesses = retro_witnesses()
    assert witnesses
    assert len(witnesses) == 48


def test_retro_witnesses_canonical_order():
    witnesses = retro_witnesses()
    keys = [(w.base, w.changed_input, w.new_value) for w in witnesses]
    assert keys == sorted(keys)


def test_retro_witnesses_change_something():
    for w in retro_witnesses():
        assert w.lost_hidden or w.gained_hidden


def test_mixed_hidden_states_never_lost_for_center_a():
    for w in retro_witnesses():
        if w.base.center == "A":
            assert BC not in w.lost_hidden
            assert CB not in w.lost_hidden
    for left, right in itertools.product(FLAVORS, repeat=2):
        assert {BC, CB} <= hidden_state_set(InputTriple(left, "A", right))


def test_nonlocal_witness_right_change_narrows_left_output():
    for w in nonlocality_witnesses():
        if w.base == InputTriple("B", "A", "B") and w.changed_input == "right" and w.new_value == "A":
            assert w.remote_edge == "l_out"
            assert w.old_outputs == frozenset("ABC")
            assert w.new_outputs == frozenset("AB")
            break
    else:
        pytest.fail("expected witness missing")


def test_nonlocal_witnesses_nonempty_and_ordered():
    witnesses = nonlocality_witnesses()
    assert witnesses
    keys = [(w.base, w.changed_input, w.new_value) for w in witnesses]
    assert keys == sorted(keys)


def test_homogeneous_hidden_state_forces_left_output():
    from helsinki.solver import complete

    cell = build_h_cell()
    result = complete(cell.structure, {"l_in": "B", "c_in": "A", "r_in": "B"})
    by_hidden = {(a["h_left"], a["h_right"]): a for a in result.solutions}
    assert by_hidden[AA]["l_out"] == "C"



# --- the shared cell table ---


def test_the_cell_is_solved_once_per_input_triple():
    analysis.cell_solutions.cache_clear()
    state_table()
    retro_witnesses()
    nonlocality_witnesses()
    loops.loop_universality()
    for center in FLAVORS:
        for known in ({}, {"l_in": "B"}, {"r_in": "C"}, {"l_in": "A", "r_in": "A"}):
            prob.epistemic_state(center, known)
    for t in ALL_INPUT_TRIPLES:
        hidden_state_set(t)
        prob.cell_distribution({"l_in": t.left, "c_in": t.center, "r_in": t.right})
        prob.cell_signalling_score("l_out", "r_in", {"l_in": t.left, "c_in": t.center})
    assert analysis.cell_solutions.cache_info().misses == 27  # 715 when each call site solved the cell itself


@pytest.mark.parametrize("t", ALL_INPUT_TRIPLES, ids=InputTriple.label)
def test_the_cell_table_is_what_the_engine_finds(t):
    cell, inputs = build_h_cell().structure, {"l_in": t.left, "c_in": t.center, "r_in": t.right}
    table = [dict(a) for a in analysis.cell_solutions(t)]
    for solutions in (solver.complete(cell, inputs).solutions, solver.brute_force_complete(cell, inputs)):
        assert table == solutions
        assert [list(a) for a in table] == [list(a) for a in solutions]


def test_both_witness_lists_are_the_engines_supports_compared_per_change():
    cell = build_h_cell().structure

    def solutions(t):
        return solver.complete(cell, {"l_in": t.left, "c_in": t.center, "r_in": t.right}).solutions

    retro, nonlocal_, changes = [], [], 0
    for base in ALL_INPUT_TRIPLES:
        for side, remote in (("left", "r_out"), ("right", "l_out")):
            for value in FLAVORS:
                if value == getattr(base, side):
                    continue
                changes += 1
                old, new = solutions(base), solutions(base._replace(**{side: value}))
                old_hidden, new_hidden = ({(a["h_left"], a["h_right"]) for a in s} for s in (old, new))
                if old_hidden != new_hidden:
                    lost, gained = frozenset(old_hidden - new_hidden), frozenset(new_hidden - old_hidden)
                    retro.append(RetroWitness(base, side, value, lost, gained))
                old_out, new_out = (frozenset(a[remote] for a in s) for s in (old, new))
                if old_out != new_out:
                    nonlocal_.append(NonlocalWitness(base, side, value, remote, old_out, new_out))
    assert changes == 108
    for got, expected in ((retro_witnesses(), retro), (nonlocality_witnesses(), nonlocal_)):
        assert got == expected
        assert [tuple(map(type, w)) for w in got] == [tuple(map(type, w)) for w in expected]


def test_the_cell_roles_are_the_built_cells():
    roles = build_h_cell().roles
    assert analysis.CELL_ROLES == roles
    assert list(analysis.CELL_ROLES) == sorted(roles)


NON_FLAVOR_CALLS = {
    "hidden-left": lambda: hidden_state_set(InputTriple("D", "A", "B")),
    "hidden-center": lambda: hidden_state_set(InputTriple("A", "D", "B")),
    "hidden-right": lambda: hidden_state_set(InputTriple("A", "B", "D")),
    "loop-left": lambda: loops.solve_loop("D", "A", loops.parse_channel("ACB")),
    "loop-center": lambda: loops.solve_loop("A", "D", loops.parse_channel("ACB")),
    "epistemic-center": lambda: prob.epistemic_state("D"),
    "epistemic-left": lambda: prob.epistemic_state("A", {"l_in": "D"}),
    "epistemic-right": lambda: prob.epistemic_state("A", {"r_in": "D"}),
}


@pytest.mark.parametrize("call", NON_FLAVOR_CALLS.values(), ids=NON_FLAVOR_CALLS)
def test_a_non_flavor_input_is_a_value_error_naming_it(call):
    with pytest.raises(ValueError, match="'D'"):
        call()


def test_callers_cannot_change_the_cell_table():
    t, channel = InputTriple("B", "A", "B"), loops.parse_channel("ACB")
    hidden_state_set(t).clear()
    assert hidden_state_set(t) == {AA, BC, CB}
    loops.solve_loop("A", "A", channel).clear()
    assert [s.hidden for s in loops.solve_loop("A", "A", channel)] == [BC, CB]
    loops.loop_exclusions("B", "A", loops.parse_channel("AAA")).clear()
    assert loops.loop_exclusions("B", "A", loops.parse_channel("AAA")) == {AA}
    prob.cell_distribution({"l_in": "B", "c_in": "A", "r_in": "B"}).support[0][0]["h_left"] = "B"
    with pytest.raises(TypeError):
        analysis.cell_solutions(t)[0]["h_left"] = "B"
    fresh = solver.complete(build_h_cell().structure, {"l_in": "B", "c_in": "A", "r_in": "B"})
    assert list(analysis.cell_solutions(t)) == fresh.solutions


# --- consistency ---


def test_consistency_sweep_single_cell():
    report = consistency_sweep(1)
    assert report.checked == 27
    assert report.counterexample is None


def test_consistency_sweep_two_cells():
    report = consistency_sweep(2)
    assert report.checked == 27 + 243
    assert report.counterexample is None
    assert report.family == "chain"
    assert report.max_cells == 2


def test_consistency_sweep_rejects_zero():
    with pytest.raises(ValueError):
        consistency_sweep(0)


def test_consistency_sweep_builds_no_chain_and_sums_what_each_chain_checks(monkeypatch):
    # the oracle: each chain's report from `check_all_inputs`, summed, computed before the builder is patched
    sums = list(itertools.accumulate(check_all_inputs(build_chain(k)).checked for k in range(1, 41)))

    refuse = mock.Mock(side_effect=AssertionError("a chain was built or walked"))
    monkeypatch.setattr(structure, "build_chain", refuse)
    monkeypatch.setattr(structure, "node_order", refuse)
    for k, checked in enumerate(sums, 1):
        assert consistency_sweep(k) == ("chain", k, checked, None)
    result = run(["consistency", "--max-cells", "40"])
    assert (result.exit_code, result.payload["checked"]) == (0, sums[-1])
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        consistency_sweep(2.0)
    with pytest.raises(ValueError, match="^max_cells must be at least 1, got 0$"):
        consistency_sweep(0)
    refuse.assert_not_called()


def test_check_all_inputs_on_cell():
    report = check_all_inputs(build_h_cell())
    assert report.family == "scenario"
    assert report.checked == 27
    assert report.counterexample is None


def test_consistency_sweep_matches_enumeration(sweep_by_enumeration):
    checked = 0
    for k in range(1, 5):
        inputs, counterexample = sweep_by_enumeration(build_chain(k))
        assert counterexample is None
        checked += inputs
        report = consistency_sweep(k)
        assert (report.checked, report.counterexample) == (checked, None)
    assert checked == 22140


def test_consistency_sweep_runs_no_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("a depth-first walk ran")

    monkeypatch.setattr(solver, "_walk", refuse)
    report = consistency_sweep(4)
    assert (report.checked, report.counterexample) == (22140, None)


def test_consistency_sweep_runs_no_stranding_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("least_stranding_input ran")

    monkeypatch.setattr(solver, "least_stranding_input", refuse)
    report = consistency_sweep(40)
    assert (report.checked, report.counterexample) == (sum(3 ** (2 * k + 1) for k in range(1, 41)), None)


def test_check_all_inputs_reads_the_theorem_on_a_chain_in_either_time_direction(monkeypatch):
    monkeypatch.setattr(solver, "least_stranding_input", mock.Mock(side_effect=AssertionError("the search ran")))
    for k in range(1, 41):
        for scenario in (build_chain(k), reverse_time(build_chain(k))):
            report = check_all_inputs(scenario)
            assert (report.checked, report.counterexample) == (3 ** len(intervention_edges(scenario)), None)


def test_the_stranding_search_finds_no_input_of_a_chain_in_either_time_direction():
    # the consistency theorem's oracle: a chain has the derived roles, so nothing strands
    for k in range(1, 41):
        for scenario in (build_chain(k), reverse_time(build_chain(k))):
            assert solver.least_stranding_input(scenario.structure, {}, intervention_edges(scenario)) is None


def test_the_causal_witness_is_a_completion_of_every_chain_input(causal_witness):
    for scenario in (build_chain(1), build_chain(2), reverse_time(build_chain(1)), reverse_time(build_chain(2))):
        structure, edges = scenario.structure, intervention_edges(scenario)
        for combo in itertools.product(FLAVORS, repeat=len(edges)):
            inputs = dict(zip(edges, combo))
            witness = causal_witness(structure, inputs)
            assert is_admissible(structure, witness)
            assert {e: witness[e] for e in edges} == inputs
            assert witness in brute_force_complete(structure, inputs)


def test_every_chain_input_has_a_completion_per_production_order():
    # the theorem's corollary: each production may take its two outputs either way round
    rng = random.Random(31)
    for k in (1, 2, 5, 20):
        for scenario in (build_chain(k), reverse_time(build_chain(k))):
            productions = sum(kind == PRODUCTION for kind in scenario.structure.nodes.values())
            for _ in range(5):
                inputs = {e: rng.choice(FLAVORS) for e in intervention_edges(scenario)}
                assert count_completions(scenario.structure, inputs) >= 2 ** productions


def test_consistency_sweep_is_not_bounded_by_enumeration():
    report = consistency_sweep(30)
    assert report.checked == sum(3 ** (2 * k + 1) for k in range(1, 31))
    assert report.counterexample is None


def test_least_counterexample_of_a_relabelled_cell():
    # c_in = h_left = A makes the production homogeneous, and l_in = A then
    # makes the left annihilation homogeneous next to it, whatever r_in is
    cell = build_h_cell()
    scenario = Scenario(cell.structure, {**cell.roles, "h_left": INTERVENTION})
    report = check_all_inputs(scenario)
    assert report.checked == 1
    assert report.counterexample == (scenario, {"c_in": "A", "h_left": "A", "l_in": "A", "r_in": "A"})


def test_counterexample_rank_counts_every_smaller_input(sweep_by_enumeration):
    # the least stranding choice here is not the all-A one: 27 inputs precede it
    chain = reverse_time(build_chain(2))
    roles = {**chain.roles, **dict.fromkeys(("h_left.1", "l_in.1", "r_in.1"), INTERVENTION)}
    scenario = Scenario(chain.structure, roles)
    checked, inputs = sweep_by_enumeration(scenario)
    assert checked == 28
    report = check_all_inputs(scenario)
    assert (report.checked, report.counterexample) == (checked, (scenario, inputs))


def relabelled(scenario, *edges):
    return Scenario(scenario.structure, {**scenario.roles, **dict.fromkeys(edges, INTERVENTION)})


def mutants():
    """Chains of 1..4 cells, each way in time, with a hidden edge (or one
    and an observation next to it) relabelled as an intervention; beyond its
    first cell, forward chain:4 is left out: no input strands there, and
    the enumerating oracle would try all 3^10 inputs."""
    for k in range(1, 5):
        for scenario in (build_chain(k), reverse_time(build_chain(k))):
            hidden = sorted(e for e, role in scenario.roles.items() if role == "hidden")
            if k == 4 and "c_in" in intervention_edges(scenario):
                hidden = ["c_mid.2", "h_left.1", "h_right.1"]
            yield from (relabelled(scenario, e) for e in hidden)
    # least counterexamples with a B in them
    yield relabelled(reverse_time(build_h_cell()), "h_left", "l_in")
    yield relabelled(build_chain(2), "h_left.2", "l_out.2")
    yield relabelled(reverse_time(build_chain(2)), "h_left.1", "l_in.1")


def test_least_counterexample_matches_the_enumerating_oracle(sweep_by_enumeration):
    found = []
    for scenario in mutants():
        checked, inputs = sweep_by_enumeration(scenario)
        report = check_all_inputs(scenario)
        assert (report.checked, report.counterexample) == (checked, inputs and (scenario, inputs))
        found += [inputs] if inputs else []
    assert len(found) == 14 and sum("B" in inputs.values() for inputs in found) == 3


def count_passes(monkeypatch):
    """The `least_stranding_input` calls `check_all_inputs` makes, recorded."""
    passes = []
    decide = solver.least_stranding_input
    monkeypatch.setattr(solver, "least_stranding_input", lambda *args: passes.append(args) or decide(*args))
    return passes


def test_an_all_a_counterexample_takes_one_pass(monkeypatch):
    passes = count_passes(monkeypatch)
    report = check_all_inputs(relabelled(build_chain(400), "h_left.400", "h_right.400"))
    assert report.checked == 1
    assert set(report.counterexample[1].values()) == {"A"} and len(report.counterexample[1]) == 803
    assert len(passes) == 1


def late_b(k):
    """chain:k with its last left hidden edge and left output relabelled as
    interventions: past one cell, the least stranding input is all A but
    `l_out.k = B`, whose B comes after about half of the inputs."""
    suffix = f".{k}" if k > 1 else ""
    return relabelled(build_chain(k), f"h_left{suffix}", f"l_out{suffix}")


def test_a_late_b_matches_the_enumerating_oracle(sweep_by_enumeration):
    for k in range(1, 5):
        scenario = late_b(k)
        checked, inputs = sweep_by_enumeration(scenario)
        report = check_all_inputs(scenario)
        assert (report.checked, report.counterexample) == (checked, (scenario, inputs))
        # on the cell alone the all-A input strands already
        assert [e for e, v in inputs.items() if v != "A"] == ([f"l_out.{k}"] if k > 1 else [])


def test_a_late_b_takes_one_pass(monkeypatch):
    passes = count_passes(monkeypatch)
    scenario = late_b(80)
    report = check_all_inputs(scenario)
    inputs = report.counterexample[1]
    edges = intervention_edges(scenario)
    assert len(edges) == 163 and edges.index("l_out.80") == 82
    assert [e for e, v in inputs.items() if v != "A"] == ["l_out.80"] and len(inputs) == 163
    assert report.checked == 3 ** 80 + 1
    assert len(passes) == 1


def test_a_late_b_on_chain_400():
    report = check_all_inputs(late_b(400))
    inputs = report.counterexample[1]
    assert report.checked == 3 ** 400 + 1
    assert [e for e, v in inputs.items() if v != "A"] == ["l_out.400"] and len(inputs) == 803


def test_unknown_inputs_keep_the_search_message():
    cell = build_h_cell()
    scenario = Scenario(cell.structure, {**cell.roles, "ghost": INTERVENTION})
    with pytest.raises(ValueError) as search:
        has_completion(cell.structure, {"c_in": "A", "ghost": "A", "l_in": "A", "r_in": "A"})
    assert str(search.value) == "assignment mentions unknown edges: ghost"
    with pytest.raises(ValueError, match=f"^{re.escape(str(search.value))}$"):
        check_all_inputs(scenario)


def test_report_carries_counterexample_when_present():
    cell = build_h_cell()
    inputs = {"c_in": "A", "l_in": "A", "r_in": "A"}
    report = ConsistencyReport("illustration", None, 1, (cell, inputs))
    scenario, found = report.counterexample
    assert scenario is cell
    assert found == inputs
