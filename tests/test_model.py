import itertools

import pytest
from hypothesis import given, strategies as st

from helsinki.model import (
    ALL_PERMUTATIONS,
    FLAVORS,
    annihilation_output,
    apply_permutation,
    node_admissible,
    production_completions,
)


def test_node_admissible_homogeneous():
    assert node_admissible(["A", "A", "A"])


def test_node_admissible_inhomogeneous():
    assert node_admissible(["A", "B", "C"])


def test_node_admissible_mixed_rejected():
    assert not node_admissible(["A", "A", "B"])


@pytest.mark.parametrize("size", [0, 1, 2, 4])
def test_node_admissible_needs_three(size):
    with pytest.raises(ValueError):
        node_admissible(["A"] * size)


@pytest.mark.parametrize(
    "in1,in2,expected",
    [("A", "A", "A"), ("A", "B", "C"), ("C", "B", "A"), ("B", "B", "B"), ("A", "C", "B")],
)
def test_annihilation_output_examples(in1, in2, expected):
    assert annihilation_output(in1, in2) == expected


def test_annihilation_output_commutative_and_closed():
    for x, y in itertools.product(FLAVORS, repeat=2):
        z = annihilation_output(x, y)
        assert z == annihilation_output(y, x)
        assert node_admissible([x, y, z])


def test_annihilation_output_equivariant():
    for p in ALL_PERMUTATIONS:
        for x, y in itertools.product(FLAVORS, repeat=2):
            assert annihilation_output(p[x], p[y]) == p[annihilation_output(x, y)]


@pytest.mark.parametrize(
    "value,expected",
    [
        ("A", [("A", "A"), ("B", "C"), ("C", "B")]),
        ("B", [("A", "C"), ("B", "B"), ("C", "A")]),
        ("C", [("A", "B"), ("B", "A"), ("C", "C")]),
    ],
)
def test_production_completions_exact(value, expected):
    assert production_completions(value) == expected


def test_production_completions_shape():
    for value in FLAVORS:
        pairs = production_completions(value)
        assert len(pairs) == 3
        assert sum(1 for left, right in pairs if left == right) == 1
        for left, right in pairs:
            assert node_admissible([value, left, right])


def test_apply_permutation_identity():
    assignment = {"e1": "A", "e2": "C"}
    assert apply_permutation({"A": "A", "B": "B", "C": "C"}, assignment) == assignment


def test_apply_permutation_pointwise():
    swap = {"A": "B", "B": "A", "C": "C"}
    assert apply_permutation(swap, {"e1": "A", "e2": "C"}) == {"e1": "B", "e2": "C"}
    cycle = {"A": "B", "B": "C", "C": "A"}
    assert apply_permutation(cycle, {"e1": "A"}) == {"e1": "B"}


assignments = st.dictionaries(
    st.text(alphabet="abcdefgh", min_size=1, max_size=4),
    st.sampled_from(FLAVORS),
    max_size=8,
)


@given(assignments, st.sampled_from(ALL_PERMUTATIONS), st.sampled_from(ALL_PERMUTATIONS))
def test_apply_permutation_composes(assignment, p, q):
    via_steps = apply_permutation(p, apply_permutation(q, assignment))
    assert via_steps == apply_permutation({f: p[q[f]] for f in FLAVORS}, assignment)


def test_the_cell_rules_are_the_node_law_read_over_every_flavor_input():
    for x, y in itertools.product(FLAVORS, repeat=2):
        assert [f for f in FLAVORS if node_admissible([x, y, f])] == [annihilation_output(x, y)]
    for value in FLAVORS:
        pairs = [(left, right) for left in FLAVORS for right in FLAVORS if node_admissible([value, left, right])]
        assert production_completions(value) == pairs


@pytest.mark.parametrize("bad", ["D", "", "AB", "a", None])
def test_the_cell_rules_refuse_a_non_flavor(bad):
    for call in (lambda: production_completions(bad), lambda: annihilation_output(bad, "A"),
                 lambda: annihilation_output("A", bad), lambda: annihilation_output(bad, bad)):
        with pytest.raises(ValueError, match="unknown flavor"):
            call()
