"""Local rules of the Helsinki flavor model.

Edges carry one of three symbolic flavors. A node joins exactly three
edges and is admissible only when strictly homogeneous (all three flavors
equal) or strictly inhomogeneous (all three distinct). Production nodes
split one edge into two, annihilation nodes merge two edges into one.

Everything in this module is a pure function over immutable values; the
fixed flavor order A < B < C is used for all deterministic output ordering.
The node law is stated once, in `node_admissible`: `annihilation_output`,
`production_completions` and the solver's node fillings read it.
The two domain errors, the edge roles and the check of a partial
assignment live here too, so that the CLI can map the errors to its exit
codes, and the readers of the cell table can name roles and check pins,
without loading `structure` or `solver`.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping

Flavor = str
HiddenState = tuple[str, str]
Permutation = dict[str, str]
#: edge id -> flavor, total or partial
Assignment = dict[str, str]

FLAVORS: tuple[str, ...] = ("A", "B", "C")
#: the diagram formats of `render.render`
FORMATS = ("graph", "ascii")

#: an edge's role in a scenario: entering from the past (freely choosable),
#: leaving to the future (read-only), or internal
INTERVENTION = "intervention"
OBSERVATION = "observation"
HIDDEN = "hidden"

PRODUCTION = "production"
ANNIHILATION = "annihilation"
NODE_KINDS = (PRODUCTION, ANNIHILATION)


class InvalidStructureError(Exception):
    """A structure whose topology violates the composition rules."""

    def __init__(self, violations: list):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class EmptySupportError(Exception):
    """The requested inputs admit no completion at all."""


def check_flavor(value: str) -> str:
    """Return `value` if it is a flavor, raise ValueError otherwise."""
    if value not in FLAVORS:
        raise ValueError(f"unknown flavor {value!r}; expected one of {', '.join(FLAVORS)}")
    return value


#: the flavors, for a set test of a partial's values
_FLAVOR_SET = frozenset(FLAVORS)


def check_partial(edges: Mapping[str, object], partial: dict[str, str]) -> None:
    """Raise ValueError for a partial assignment naming an edge not among
    the keys of `edges` or holding a non-flavor; the solver, `render`,
    `structure.serialize_scenario` and the cell table's callers share it.
    Its keys and values are each checked in one pass; a bad entry (an
    unhashable value too) goes on to the checks that name every bad entry."""
    try:
        if partial.keys() <= edges.keys() and _FLAVOR_SET.issuperset(partial.values()):
            return
    except TypeError:
        pass
    unknown = [eid for eid in partial if eid not in edges]
    if unknown:
        names = (eid if isinstance(eid, str) else repr(eid) for eid in _in_order(unknown))
        raise ValueError(f"assignment mentions unknown edges: {', '.join(names)}")
    bad = [v for v in partial.values() if v not in FLAVORS]
    if bad:
        raise ValueError(f"assignment contains non-flavor values: {', '.join(map(repr, _in_order(bad)))}")


def _in_order(items: list) -> list:
    """`items` sorted; by how they print when their types do not compare."""
    try:
        return sorted(items)
    except TypeError:
        return sorted(items, key=repr)


def node_admissible(flavors: Iterable[Flavor]) -> bool:
    """True when three incident flavors are all equal or all distinct."""
    items = tuple(flavors)
    if len(items) != 3:
        raise ValueError(f"a node joins exactly 3 edges, got {len(items)} flavors")
    return len(set(items)) in (1, 3)


def annihilation_output(in1: Flavor, in2: Flavor) -> Flavor:
    """The unique flavor completing an admissible node with the two inputs.

    Symmetric in its arguments: equal inputs return themselves, distinct
    inputs return the remaining third flavor. Raises ValueError for a
    non-flavor.
    """
    inputs = (check_flavor(in1), check_flavor(in2))
    (third,) = (f for f in FLAVORS if node_admissible((*inputs, f)))
    return third


def production_completions(value: Flavor) -> list[tuple[Flavor, Flavor]]:
    """All admissible (left, right) output pairs for a production input.

    Exactly three ordered pairs, sorted by (left, right) under A < B < C:
    the homogeneous pair plus both orderings of the two remaining flavors.
    Output order is semantically meaningful; (B, C) and (C, B) are
    different hidden states downstream. Raises ValueError for a non-flavor.
    """
    check_flavor(value)
    return [pair for pair in itertools.product(FLAVORS, repeat=2) if node_admissible((value, *pair))]


# --- flavor permutations: the six bijections of A, B, C (the symmetry
# group of the rules) and their action on assignments ---

ALL_PERMUTATIONS: tuple[Permutation, ...] = tuple(
    dict(zip(FLAVORS, images)) for images in itertools.permutations(FLAVORS)
)


def apply_permutation(p: Permutation, assignment: dict[str, Flavor]) -> dict[str, Flavor]:
    """Relabel every assigned flavor through the bijection p; keys unchanged."""
    return {edge: p[value] for edge, value in assignment.items()}
