import itertools
from collections import Counter
from fractions import Fraction

import pytest

from helsinki.model import FLAVORS, PRODUCTION, annihilation_output, production_completions
from helsinki.solver import brute_force_complete, has_completion
from helsinki.structure import build_chain, build_h_cell, intervention_edges, node_order


@pytest.fixture(scope="session")
def chain_400_witness():
    """chain:400 and pins on its inputs and hidden edges under which every
    node is inhomogeneous; the pins fix exactly one completion."""
    pins, center = {"c_in": "A"}, "A"
    for i in range(1, 401):
        left, right = (f for f in FLAVORS if f != center)
        pins.update({f"h_left.{i}": left, f"h_right.{i}": right, f"l_in.{i}": center, f"r_in.{i}": center})
        center = left  # the right annihilation's output, third to (right, center)
    return build_chain(400), pins


@pytest.fixture(scope="session")
def chain_count():
    """Unpinned completion counts of chain:K by a transfer matrix over the
    brute-force solutions of one cell, sharing no code with the solver.

    The state between cells is the flavor entering the next production and
    whether the right annihilation feeding it is homogeneous; a homogeneous
    production may not follow a homogeneous one.
    """
    homogeneous = lambda *flavors: len(set(flavors)) == 1
    # (c_in, r_out, production homogeneous, right annihilation homogeneous) -> solutions
    cell = Counter(
        (a["c_in"], a["r_out"], homogeneous(a["c_in"], a["h_left"], a["h_right"]),
         homogeneous(a["h_right"], a["r_in"], a["r_out"]))
        for a in brute_force_complete(build_h_cell().structure, {})
    )

    def count(k: int) -> int:
        vector = Counter({(c, False): 1 for c in FLAVORS})
        for _ in range(k):
            after: Counter = Counter()
            for (center, banned), n in vector.items():
                for (c_in, r_out, production, annihilation), m in cell.items():
                    if c_in == center and not (banned and production):
                        after[r_out, annihilation] += n * m
            vector = after
        return sum(vector.values())

    return count


@pytest.fixture(scope="session")
def chain_solutions():
    """The admissible completions of `pins` on chain:K in canonical order,
    composed cell by cell from the brute-force solutions of one cell,
    sharing no code with the solver.

    Cell i's edges take the suffix `.i`, but its `c_in` is `c_mid.i` after
    the first cell and its `r_out` is the next cell's `c_mid`; a homogeneous
    production may not follow a homogeneous right annihilation.
    """
    homogeneous = lambda *flavors: len(set(flavors)) == 1
    cell = brute_force_complete(build_h_cell().structure, {})

    def solutions(k: int, pins: dict) -> list:
        def name(edge, i):
            if k == 1:
                return edge
            if edge == "c_in":
                return "c_in" if i == 1 else f"c_mid.{i}"
            if edge == "r_out" and i < k:
                return f"c_mid.{i + 1}"
            return f"{edge}.{i}"

        # (assignment so far, right annihilation of the last cell homogeneous)
        partials = [({}, False)]
        for i in range(1, k + 1):
            center, grown = name("c_in", i), []
            for a in cell:
                renamed = {name(e, i): f for e, f in a.items()}
                if any(pins.get(e, f) != f for e, f in renamed.items()):
                    continue
                production = homogeneous(a["c_in"], a["h_left"], a["h_right"])
                annihilation = homogeneous(a["h_right"], a["r_in"], a["r_out"])
                grown += [
                    ({**done, **renamed}, annihilation)
                    for done, banned in partials
                    if done.get(center, a["c_in"]) == a["c_in"] and not (banned and production)
                ]
            partials = grown
        edges = sorted(partials[0][0]) if partials else []
        return sorted((a for a, _ in partials), key=lambda a: [a[e] for e in edges])

    return solutions


@pytest.fixture(scope="session")
def sweep_by_enumeration():
    """(checked, least stranding inputs or None) of a scenario, found by one
    depth-first search per intervention assignment in sorted-edge
    lexicographic order: the enumerating oracle of the consistency check."""

    def sweep(scenario):
        edges = intervention_edges(scenario)
        for checked, combo in enumerate(itertools.product(FLAVORS, repeat=len(edges)), 1):
            inputs = dict(zip(edges, combo))
            if not has_completion(scenario.structure, inputs):
                return checked, inputs
        return 3 ** len(edges), None

    return sweep


@pytest.fixture(scope="session")
def causal_witness():
    """The completion of a full intervention input that the consistency
    theorem builds on a valid structure, keys in sorted edge order: nodes in
    topological order, each production giving its outputs its first
    inhomogeneous completion and each annihilation the output its inputs
    force. Each value is read from the node's causal past alone."""

    def witness(structure, inputs):
        walk = node_order(structure)
        values = dict(inputs)
        for node in walk.depth:
            port = walk.ports[node]
            if structure.nodes[node] == PRODUCTION:
                pairs = [(a, b) for a, b in production_completions(values[port["in1"]]) if a != b]
                values[port["out1"]], values[port["out2"]] = pairs[0]
            else:
                values[port["out1"]] = annihilation_output(values[port["in1"]], values[port["in2"]])
        return {e: values[e] for e in walk.edges}

    return witness


@pytest.fixture(scope="session")
def marginal_by_fractions():
    """The pushforward of a distribution to one edge, adding one `Fraction`
    per weighted assignment: the plain oracle of `prob.marginal`."""

    def pushforward(dist, edge):
        out = {f: Fraction(0) for f in FLAVORS}
        for assignment, p in dist.support:
            out[assignment[edge]] += p
        return out

    return pushforward
