"""Uniform measure over admissible completions, and what it buys.

The base rules assign no probabilities; the minimal symmetric choice is
the uniform distribution over all admissible completions of the chosen
inputs, and every number downstream (marginals, signalling scores,
epistemic weights) is relative to that choice. All arithmetic is exact
rational; distributions serialize as strings like "1/3", never floats.
Marginals are summed exactly, as integers over one common denominator,
so weights must be `int` or `Fraction`; any other weight is a TypeError.

The basic cell is read from the cell table (`analysis.cell_solutions`):
`cell_distribution` and `cell_signalling_score` give what the scenario
functions give on `build_h_cell()`, and, like `epistemic_state`, load no
search engine. Any other scenario is solved by `solver.complete`, which is
loaded when the first one is.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Optional

from .analysis import CELL_ROLES, InputTriple, cell_solutions, hidden_state_set
from .model import (
    FLAVORS,
    INTERVENTION,
    OBSERVATION,
    Assignment,
    EmptySupportError,
    HiddenState,
    check_partial,
    production_completions,
)

if TYPE_CHECKING:
    from .structure import Scenario

#: `helsinki.solver`, bound when the first scenario is solved, so that the
#: cell route never loads it and no call pays for an import statement
_solver = None


class CompletionDistribution(NamedTuple):
    """Uniform distribution over the admissible completions of some inputs."""

    support: list[tuple[Assignment, Fraction]]


def completion_distribution(scenario: Scenario, inputs: Assignment) -> CompletionDistribution:
    """Uniform distribution over completions of `inputs`.

    `inputs` must cover every intervention edge; it may additionally pin
    hidden or output edges, which conditions the distribution on them.
    """
    global _solver
    _check_covered(scenario.roles, inputs)
    if _solver is None:
        _solver = importlib.import_module(".solver", __package__)
    return _uniform(_solver.complete(scenario.structure, inputs).solutions, inputs)


def cell_distribution(inputs: Assignment) -> CompletionDistribution:
    """`completion_distribution(build_h_cell(), inputs)`, read from the cell
    table: the same support, key order, weights and errors."""
    _check_covered(CELL_ROLES, inputs)
    check_partial(CELL_ROLES, inputs)
    table = cell_solutions(InputTriple(inputs["l_in"], inputs["c_in"], inputs["r_in"]))
    return _uniform([dict(a) for a in table if all(a[e] == v for e, v in inputs.items())], inputs)


def _check_covered(roles: Mapping[str, str], inputs: Assignment) -> None:
    missing = [e for e, role in roles.items() if role == INTERVENTION and e not in inputs]
    if missing:
        raise ValueError(f"inputs must cover every intervention edge; missing: {', '.join(sorted(missing))}")


def _uniform(solutions: list[Assignment], inputs: Assignment) -> CompletionDistribution:
    if not solutions:
        raise EmptySupportError(f"no admissible completion for inputs {dict(sorted(inputs.items()))}")
    weight = Fraction(1, len(solutions))
    return CompletionDistribution([(a, weight) for a in solutions])


def marginal(dist: CompletionDistribution, edge: str) -> dict[str, Fraction]:
    """Pushforward of the distribution to the flavor at one edge.

    Sums each flavor's weights as integer numerators over one common
    denominator, grown only when a weight's denominator does not divide it,
    and reduces once at the end; weights must be `int` or `Fraction`."""
    if not dist.support or edge not in dist.support[0][0]:
        raise ValueError(f"unknown edge {edge!r}")
    sums = dict.fromkeys(FLAVORS, 0)
    den = 1
    for assignment, p in dist.support:
        try:
            num, d = p.numerator, p.denominator
        except AttributeError:
            raise TypeError(f"weight {p!r} is not an exact rational (int or Fraction)") from None
        if den % d:
            grow = d // math.gcd(den, d)
            den *= grow
            for f in sums:
                sums[f] *= grow
        sums[assignment[edge]] += num * (den // d)
    return {f: Fraction(n, den) for f, n in sums.items()}


def total_variation(d1: dict[str, Fraction], d2: dict[str, Fraction]) -> Fraction:
    return sum((abs(d1[f] - d2[f]) for f in FLAVORS), Fraction(0)) / 2


def signalling_score(
    scenario: Scenario, target: str, remote: str, context: Assignment
) -> Fraction:
    """How much the target marginal can move when only `remote` changes.

    Maximum total-variation distance between the target's marginals over
    the possible remote values, with every other intervention pinned by
    `context`. Zero exactly when the target's statistics ignore the remote
    setting.
    """
    distribution = functools.partial(completion_distribution, scenario)
    return _signalling(scenario.roles, distribution, target, remote, context)


def cell_signalling_score(target: str, remote: str, context: Assignment) -> Fraction:
    """`signalling_score(build_h_cell(), ...)`, read from the cell table."""
    return _signalling(CELL_ROLES, cell_distribution, target, remote, context)


def _signalling(
    roles: Mapping[str, str],
    distribution: Callable[[Assignment], CompletionDistribution],
    target: str,
    remote: str,
    context: Assignment,
) -> Fraction:
    if roles.get(remote) != INTERVENTION:
        raise ValueError(f"remote edge {remote!r} is not an intervention edge")
    if roles.get(target) != OBSERVATION:
        raise ValueError(f"target edge {target!r} is not an observation edge")
    expected = sorted(e for e, role in roles.items() if role == INTERVENTION and e != remote)
    if sorted(context) != expected:
        raise ValueError(f"context must assign exactly {', '.join(expected)}")

    marginals = {}
    for value in FLAVORS:
        try:
            dist = distribution({**context, remote: value})
        except EmptySupportError as exc:
            raise EmptySupportError(f"remote value {value}: {exc}") from exc
        marginals[value] = marginal(dist, target)
    return max(
        total_variation(marginals[v1], marginals[v2])
        for v1, v2 in itertools.combinations(FLAVORS, 2)
    )


def epistemic_state(
    center_in: str, known: Optional[dict[str, str]] = None
) -> dict[HiddenState, Fraction]:
    """Weight of each hidden state before the wing settings are fixed.

    For each hidden state compatible with the center input, the weight is
    the fraction of wing-setting pairs consistent with `known` (9, 3, or 1
    of them, uniformly weighted) under which that hidden state is
    admissible. `known` may pin "l_in" and/or "r_in".
    """
    known = dict(known or {})
    extra = sorted(set(known) - {"l_in", "r_in"})
    if extra:
        raise ValueError(f"known settings may only pin l_in and r_in, got: {', '.join(extra)}")
    for edge, value in known.items():
        if value not in FLAVORS:
            raise ValueError(f"known[{edge!r}]: unknown flavor {value!r}")

    left_options = [known["l_in"]] if "l_in" in known else list(FLAVORS)
    right_options = [known["r_in"]] if "r_in" in known else list(FLAVORS)
    # the hidden states each wing-setting pair admits, built once per pair
    admitted = [hidden_state_set(InputTriple(l, center_in, r)) for l in left_options for r in right_options]
    return {
        hidden: Fraction(sum(hidden in states for states in admitted), len(admitted))
        for hidden in production_completions(center_in)
    }
