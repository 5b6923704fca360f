"""Acceptance suite: every headline claim, checked at full strength.

Each criterion runs exhaustively or at its exact expected values and prints
one PASS/FAIL line (visible with `pytest -s`); a criterion also fails if it
blows its runtime budget.
"""

import contextlib
import itertools
import random
import time
from fractions import Fraction

from helsinki.analysis import (
    ALL_INPUT_TRIPLES,
    InputTriple,
    canonicalize_inputs,
    consistency_sweep,
    hidden_state_set,
    reflect_triple,
)
from helsinki.cli import run
from helsinki.loops import loop_exclusions, loop_universality, parse_channel, solve_loop
from helsinki.model import (
    ALL_PERMUTATIONS,
    FLAVORS,
    annihilation_output,
    apply_permutation,
    production_completions,
)
from helsinki.prob import completion_distribution, epistemic_state, marginal, signalling_score
from helsinki.solver import brute_force_complete, complete
from helsinki.structure import build_chain, build_h_cell

AA, BC, CB = ("A", "A"), ("B", "C"), ("C", "B")
CELL = build_h_cell()


@contextlib.contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    )
    print(f"[criterion {number}] PASS  {description}  ({elapsed:.2f}s)")


def test_criterion_1_state_table():
    with criterion(1, "state table reproduced cell for cell", 1.0):
        result = run(["table"])
        assert result.exit_code == 0
        rows = {row["inputs"]: row["allowed"] for row in result.payload["rows"]}
        assert list(rows) == ["A_A_A", "A_A_B", "B_A_B", "B_A_C"]
        assert result.payload["columns"] == ["AA", "BC", "CB"]
        for label, allowed in rows.items():
            assert allowed["AA"] == (label in ("B_A_B", "B_A_C"))
            assert allowed["BC"] is True
            assert allowed["CB"] is True


def test_criterion_2_symmetry_classes():
    with criterion(2, "all 27 input triples collapse to the 4 classes", 1.0):
        canonical = {canonicalize_inputs(t)[0] for t in ALL_INPUT_TRIPLES}
        assert sorted(c.label() for c in canonical) == ["A_A_A", "A_A_B", "B_A_B", "B_A_C"]


def test_criterion_3_retrocausality_witness():
    with criterion(3, "changing the right input to A removes exactly the homogeneous hidden state", 1.0):
        before = hidden_state_set(InputTriple("B", "A", "B"))
        after = hidden_state_set(InputTriple("B", "A", "A"))
        assert before - after == {AA}
        assert after - before == set()
        survivors = complete(CELL.structure, {"l_in": "B", "c_in": "A", "r_in": "A"}).solutions
        outcomes = [((a["h_left"], a["h_right"]), a["l_out"], a["r_out"]) for a in survivors]
        assert outcomes == [(BC, "B", "B"), (CB, "A", "C")]


def test_criterion_4_nonlocality_witness():
    with criterion(4, "left output set narrows when the right input changes", 1.0):
        def left_outputs(right):
            sols = complete(CELL.structure, {"l_in": "B", "c_in": "A", "r_in": right}).solutions
            return {a["l_out"] for a in sols}

        assert left_outputs("B") == {"A", "B", "C"}
        assert left_outputs("A") == {"A", "B"}


def test_criterion_5_consistency_sweep(sweep_by_enumeration):
    with criterion(5, "chains of 1..4 cells never strand any input choice", 300.0):
        report = consistency_sweep(4)
        assert report.counterexample is None
        assert report.checked == sum(3 ** (2 * k + 1) for k in range(1, 5))
        # the sweep reads the theorem; one search per input still tries every choice
        enumerated = [sweep_by_enumeration(build_chain(k)) for k in range(1, 5)]
        assert enumerated == [(3 ** (2 * k + 1), None) for k in range(1, 5)]


def test_criterion_6_loop_claims():
    with criterion(6, "feedback channels constrain but never shut the cell down", 10.0):
        solutions = solve_loop("A", "A", parse_channel("ACB"))
        assert len(solutions) == 2
        assert [s.right_out for s in solutions] == ["A", "A"]

        assert loop_exclusions("B", "A", parse_channel("AAA")) == {AA}

        report = loop_universality()
        assert report.total == 243
        assert report.failures == []


def test_criterion_7_oracle_equivalence():
    with criterion(7, "propagating search equals naive enumerate-and-filter", 60.0):
        rng = random.Random(20260808)

        cell = CELL.structure
        assert len(brute_force_complete(cell, {})) == 66
        assert complete(cell, {}).solutions == brute_force_complete(cell, {})
        cell_edges = sorted(cell.edges)
        for _ in range(100):
            partial = {e: rng.choice(FLAVORS) for e in cell_edges if rng.random() < 0.5}
            assert complete(cell, partial).solutions == brute_force_complete(cell, partial)

        chain = build_chain(2).structure
        # one full scan of all 3^13 totals; filtering any partial out of the
        # admissible survivors is the same naive filter
        admissible = brute_force_complete(chain, {})
        assert complete(chain, {}).solutions == admissible
        chain_edges = sorted(chain.edges)
        for _ in range(100):
            partial = {e: rng.choice(FLAVORS) for e in chain_edges if rng.random() < 0.35}
            expected = [a for a in admissible if all(a[e] == v for e, v in partial.items())]
            assert complete(chain, partial).solutions == expected


def test_criterion_8_probability_layer():
    with criterion(8, "uniform-measure marginals, signalling score, epistemic weights", 1.0):
        def left_marginal(right):
            dist = completion_distribution(CELL, {"l_in": "B", "c_in": "A", "r_in": right})
            return marginal(dist, "l_out")

        third = Fraction(1, 3)
        assert left_marginal("B") == {"A": third, "B": third, "C": third}
        assert left_marginal("A") == {"A": Fraction(1, 2), "B": Fraction(1, 2), "C": Fraction(0)}
        assert signalling_score(CELL, "l_out", "r_in", {"l_in": "B", "c_in": "A"}) == third
        assert epistemic_state("A") == {AA: Fraction(4, 9), BC: Fraction(1), CB: Fraction(1)}


def test_criterion_9_equivariance_suite():
    with criterion(9, "permutation and reflection symmetry across the stack", 10.0):
        for p in ALL_PERMUTATIONS:
            # node rules
            for x, y in itertools.product(FLAVORS, repeat=2):
                assert annihilation_output(p[x], p[y]) == p[annihilation_output(x, y)]
            for x in FLAVORS:
                image = sorted((p[l], p[r]) for l, r in production_completions(x))
                assert production_completions(p[x]) == image

            for t in ALL_INPUT_TRIPLES:
                inputs = {"l_in": t.left, "c_in": t.center, "r_in": t.right}

                # solver solutions map through the permutation
                direct = complete(CELL.structure, apply_permutation(p, inputs)).solutions
                mapped = sorted(
                    (tuple(sorted(apply_permutation(p, a).items())) for a in complete(CELL.structure, inputs).solutions)
                )
                assert [tuple(sorted(d.items())) for d in direct] == mapped

                # hidden-state analysis maps through permutation and reflection
                base = hidden_state_set(t)
                assert hidden_state_set(InputTriple(p[t.left], p[t.center], p[t.right])) == {
                    (p[x], p[y]) for x, y in base
                }
                assert hidden_state_set(reflect_triple(t)) == {(y, x) for x, y in base}
