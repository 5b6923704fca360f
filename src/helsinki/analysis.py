"""Hidden-state analysis of the basic cell and consistency sweeps.

The wing inputs of the cell act like measurement settings: which hidden
states survive depends counterfactually on them, and one wing's admissible
outputs depend on the other wing's setting. Both dependencies are computed
here as exact set differences over exhaustive solution sets: both witness
lists read one scan (`_support_changes`) of the single wing-input changes,
each with its own support. Here too are the symmetry-class reduction of
the 27 input triples to 4 and the consistency checks. No choice of
inputs strands a structure with its derived roles, a theorem proved in
README's Consistency section. `check_all_inputs` reads it for such a
scenario, so a structure file is decided without a search, and
`consistency_sweep` counts the chain family's inputs in closed form,
building no chain. Only relabelled roles can strand, and for them one
`solver.least_stranding_input` pass decides all of a scenario's inputs
at once and returns the least counterexample.
The cell's table (`cell_solutions`) is built straight from the node rules
in `model`, once per input triple per process, so the cell-level analyses
here and in `prob` and `loops` load no search engine; the engine is the
table's oracle in the tests, and the search is the theorem's. Only
`check_all_inputs` loads the structure module, and only on relabelled
roles the engine.
"""

from __future__ import annotations

import functools
import itertools
import operator
from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple, Optional

from .model import (
    ALL_PERMUTATIONS,
    FLAVORS,
    HIDDEN,
    INTERVENTION,
    OBSERVATION,
    Assignment,
    HiddenState,
    Permutation,
    annihilation_output,
    check_flavor,
    production_completions,
)

if TYPE_CHECKING:
    from .structure import Scenario


class InputTriple(NamedTuple):
    """The three past-side choices of the basic cell: left, center, right."""

    left: str
    center: str
    right: str

    def label(self) -> str:
        return f"{self.left}_{self.center}_{self.right}"


ALL_INPUT_TRIPLES: tuple[InputTriple, ...] = tuple(
    InputTriple(*combo) for combo in itertools.product(FLAVORS, repeat=3)
)


class Transform(NamedTuple):
    """A flavor relabeling plus an optional left/right swap."""

    permutation: Permutation
    reflected: bool


class RetroWitness(NamedTuple):
    """A wing-input change that alters the admissible hidden states."""

    base: InputTriple
    changed_input: str
    new_value: str
    lost_hidden: frozenset[HiddenState]
    gained_hidden: frozenset[HiddenState]


class NonlocalWitness(NamedTuple):
    """A wing-input change that alters the far wing's admissible outputs."""

    base: InputTriple
    changed_input: str
    new_value: str
    remote_edge: str
    old_outputs: frozenset[str]
    new_outputs: frozenset[str]


class StateTable(NamedTuple):
    """Allowed hidden states per canonical input class; 4 rows, 3 columns."""

    columns: tuple[HiddenState, ...]
    rows: dict[InputTriple, dict[HiddenState, bool]]


class ConsistencyReport(NamedTuple):
    """How many total intervention assignments a consistency check covers,
    and the least one that strands, if any."""

    family: str
    max_cells: Optional[int]
    checked: int
    counterexample: Optional[tuple[Scenario, Assignment]]


def reflect_triple(t: InputTriple) -> InputTriple:
    return InputTriple(t.right, t.center, t.left)


def apply_transform(t: InputTriple, transform: Transform) -> InputTriple:
    """Relabel flavors, then swap wings if reflected (the two commute)."""
    p = transform.permutation
    mapped = InputTriple(p[t.left], p[t.center], p[t.right])
    return reflect_triple(mapped) if transform.reflected else mapped


#: the basic cell's edges in sorted order, each with its role: what
#: `build_h_cell().roles` holds, for the readers of `cell_solutions`
CELL_ROLES = MappingProxyType({
    "c_in": INTERVENTION, "h_left": HIDDEN, "h_right": HIDDEN, "l_in": INTERVENTION,
    "l_out": OBSERVATION, "r_in": INTERVENTION, "r_out": OBSERVATION,
})


@functools.cache
def cell_solutions(t: InputTriple) -> tuple[MappingProxyType, ...]:
    """The basic cell's admissible assignments under the given inputs, in
    canonical order, each with its keys in sorted edge order: what
    `solver.complete` gives on `build_h_cell()`, built from the node rules.

    The production's outputs are one of its three completions, each
    annihilation's output is fixed by its two inputs, and a homogeneous
    production may not feed a homogeneous annihilation. The completions
    come sorted and the inputs are fixed, so the order is canonical. Each
    triple is built once per process and the result is shared by every
    caller, so it is a tuple of read-only mappings.
    """
    left, center, right = map(check_flavor, t)
    solutions = []
    for h_left, h_right in production_completions(center):
        if h_left == h_right and (h_left == left or h_right == right):
            continue
        solutions.append({
            "c_in": center, "h_left": h_left, "h_right": h_right,
            "l_in": left, "l_out": annihilation_output(h_left, left),
            "r_in": right, "r_out": annihilation_output(h_right, right),
        })
    return tuple(MappingProxyType(a) for a in solutions)


def hidden_state_set(t: InputTriple) -> set[HiddenState]:
    """Hidden (left, right) pairs admissible under the given inputs."""
    return {(a["h_left"], a["h_right"]) for a in cell_solutions(t)}


def canonicalize_inputs(t: InputTriple) -> tuple[InputTriple, Transform]:
    """Normal form of a triple under flavor relabeling and wing reflection.

    The canonical representative has center A and the lexicographically
    least (left, right) among all images with center A. Returns the
    representative and one transform realizing it.
    """
    for value in t:
        check_flavor(value)
    best = None
    for p in ALL_PERMUTATIONS:
        if p[t.center] != "A":
            continue
        for reflected in (False, True):
            transform = Transform(p, reflected)
            image = apply_transform(t, transform)
            if best is None or (image.left, image.right) < (best[0].left, best[0].right):
                best = (image, transform)
    return best


def input_classes() -> list[InputTriple]:
    """The distinct canonical forms over all 27 triples, sorted."""
    return sorted({canonicalize_inputs(t)[0] for t in ALL_INPUT_TRIPLES})


def state_table() -> StateTable:
    """Allowed hidden states for each canonical input class.

    Columns are the three hidden states compatible with center input A,
    in canonical order.
    """
    columns = tuple(production_completions("A"))
    rows = {}
    for t in input_classes():
        allowed = hidden_state_set(t)
        rows[t] = {h: h in allowed for h in columns}
    return StateTable(columns, rows)


def _support_changes(support):
    """Every single wing-input change that alters `support(triple, side)`,
    as (base, side, new value, old support, new support), ordered by base
    triple, side, then new value: the one question both witness lists ask."""
    for base in ALL_INPUT_TRIPLES:
        for side in ("left", "right"):
            old = support(base, side)
            for new_value in FLAVORS:
                if new_value != getattr(base, side):
                    new = support(base._replace(**{side: new_value}), side)
                    if new != old:
                        yield base, side, new_value, old, new


def retro_witnesses() -> list[RetroWitness]:
    """Every single wing-input change that alters the hidden-state set.

    Ordered lexicographically by (base triple, changed side, new value).
    """
    changes = _support_changes(lambda t, side: hidden_state_set(t))
    return [RetroWitness(base, side, value, frozenset(old - new), frozenset(new - old))
            for base, side, value, old, new in changes]


#: the far wing's output edge, by the side whose input changes
_REMOTE = {"left": "r_out", "right": "l_out"}


def nonlocality_witnesses() -> list[NonlocalWitness]:
    """Every single wing-input change that alters the far wing's admissible
    output flavors. Same canonical ordering as the retro list."""
    changes = _support_changes(lambda t, side: frozenset(a[_REMOTE[side]] for a in cell_solutions(t)))
    return [NonlocalWitness(base, side, value, _REMOTE[side], old, new) for base, side, value, old, new in changes]


def check_all_inputs(scenario: Scenario) -> ConsistencyReport:
    """Verify every total intervention assignment admits a completion.

    Assignments are ranked lexicographically over the sorted edges: the
    counterexample is the least one and `checked` its rank, else all 3^n.
    With the derived roles none strands (README, Consistency), so all 3^n
    are checked and no search runs; relabelled roles can strand, and one
    `least_stranding_input` pass decides every input and finds the least.
    The report's family is "scenario", for a caller to relabel.
    Raises InvalidStructureError for a structure that does not validate.
    """
    from .structure import Scenario, intervention_edges, node_order
    structure, edges = scenario.structure, intervention_edges(scenario)
    node_order(structure)  # refuses a structure that does not validate, with its report
    if scenario.roles == Scenario.derive(structure).roles:
        return ConsistencyReport("scenario", None, 3 ** len(edges), None)
    from .solver import least_stranding_input
    inputs = least_stranding_input(structure, {}, edges)
    if inputs is None:
        return ConsistencyReport("scenario", None, 3 ** len(edges), None)
    rank = functools.reduce(lambda r, e: 3 * r + FLAVORS.index(inputs[e]), edges, 0)
    return ConsistencyReport("scenario", None, rank + 1, (scenario, inputs))


def consistency_sweep(max_cells: int) -> ConsistencyReport:
    """Count every input of the chains of 1..max_cells cells, building none.

    chain:k has 2k + 1 interventions (`build_chain`: `c_in` and each cell's
    `l_in` and `r_in`), and by the theorem none of their inputs strands, so
    `checked` is the sum of 3^(2k + 1) over k: 27 (9^max_cells - 1) / 8.
    Raises ValueError below 1 cell and TypeError for a non-integer.
    """
    if max_cells < 1:
        raise ValueError(f"max_cells must be at least 1, got {max_cells}")
    return ConsistencyReport("chain", max_cells, 27 * (9 ** operator.index(max_cells) - 1) // 8, None)
