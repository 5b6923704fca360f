"""Reference answers the benchmark checks the program against.

Nothing here calls the code under test. The five local rules are restated
below and enumerated naively on the basic cell; chains are composed from
those cell solutions, and counts over long chains come from a small
transfer table over (flavor leaving the right annihilation, whether that
annihilation is homogeneous). The package's `brute_force_complete` oracle
is held to this restatement on chain:1 and chain:2, where the benchmark
also uses it as the reference for `complete`.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction
from typing import NamedTuple

FLAVORS = ("A", "B", "C")

# The README's worked examples, verbatim.
README_TABLE = """\
inputs  <AA>    <BC>    <CB>
A_A_A   no      yes     yes
A_A_B   no      yes     yes
B_A_B   yes     yes     yes
B_A_C   yes     yes     yes
"""
README_TEXT = {
    ("table",): README_TABLE,
    ("hidden", "--left", "B", "--center", "A", "--right", "B"): "B_A_B: <AA> <BC> <CB>\n",
    ("hidden", "--left", "B", "--center", "A", "--right", "A"): "B_A_A: <BC> <CB>\n",
    ("loop", "--left", "A", "--center", "A", "--channel", "ACB"): (
        "<BC>  left_out=C right_in=B right_out=A\n<CB>  left_out=B right_in=C right_out=A\n"
    ),
    ("loop-exclusions", "--left", "B", "--center", "A", "--channel", "AAA"): "excluded: <AA>\n",
    ("loop-sweep",): "cases=243 failures=0\n",
}
README_CLASSES = ["A_A_A", "A_A_B", "B_A_B", "B_A_C"]

# Stated constants: solutions of unpinned chain:1..4, the size of the
# chain sweep up to 4 cells, and the loop and retro-witness counts.
CHAIN_COUNTS = {1: 66, 2: 1380, 3: 28776, 4: 599952}
SWEEP_4_INPUTS = 22140
LOOP_CASES = 243
RETRO_WITNESS_COUNT = 48


def admissible(a: str, b: str, c: str) -> bool:
    """A node is admissible when its three flavors are all equal or all distinct."""
    return len({a, b, c}) in (1, 3)


def homogeneous(a: str, b: str, c: str) -> bool:
    return a == b == c


class CellSolution(NamedTuple):
    c_in: str
    l_in: str
    r_in: str
    h_left: str
    h_right: str
    l_out: str
    r_out: str
    prod_hom: bool
    ann_l_hom: bool
    ann_r_hom: bool


CELL_EDGES = ("c_in", "l_in", "r_in", "h_left", "h_right", "l_out", "r_out")


def _cell_solutions() -> list[CellSolution]:
    out = []
    for c, l_in, r_in, h_l, h_r, l_out, r_out in itertools.product(FLAVORS, repeat=7):
        if not (admissible(c, h_l, h_r) and admissible(h_l, l_in, l_out) and admissible(h_r, r_in, r_out)):
            continue
        prod = homogeneous(c, h_l, h_r)
        ann_l = homogeneous(h_l, l_in, l_out)
        ann_r = homogeneous(h_r, r_in, r_out)
        # linked nodes may not both be homogeneous
        if prod and (ann_l or ann_r):
            continue
        out.append(CellSolution(c, l_in, r_in, h_l, h_r, l_out, r_out, prod, ann_l, ann_r))
    return out


CELL = _cell_solutions()
_BY_INPUT: dict[tuple[str, str, str], list[CellSolution]] = defaultdict(list)
for _s in CELL:
    _BY_INPUT[(_s.l_in, _s.c_in, _s.r_in)].append(_s)

TRIPLES = list(itertools.product(FLAVORS, repeat=3))  # (left, center, right)


def label(t) -> str:
    return "_".join(t)


def hidden_key(h) -> str:
    return f"{h[0]}{h[1]}"


def hidden_text(h) -> str:
    return f"<{h[0]}{h[1]}>"


def cell_solutions(left: str, center: str, right: str) -> list[CellSolution]:
    return _BY_INPUT[(left, center, right)]


def hidden_set(t) -> frozenset:
    return frozenset((s.h_left, s.h_right) for s in cell_solutions(*t))


def output_set(t, edge: str) -> frozenset:
    return frozenset(getattr(s, edge) for s in cell_solutions(*t))


def production_pairs(center: str) -> list[tuple[str, str]]:
    return sorted((a, b) for a in FLAVORS for b in FLAVORS if admissible(center, a, b))


def state_table_rows() -> dict[str, dict[tuple[str, str], bool]]:
    """The README table, as rows of label -> {hidden state: allowed}."""
    lines = README_TABLE.splitlines()
    columns = [tuple(cell.strip("<>")) for cell in lines[0].split()[1:]]
    rows = {}
    for line in lines[1:]:
        name, *cells = line.split()
        rows[name] = {h: cell == "yes" for h, cell in zip(columns, cells)}
    return rows


def retro_witnesses() -> list[tuple]:
    """(base, side, new value, lost, gained) in the package's documented order."""
    out = []
    for base in TRIPLES:
        base_set = hidden_set(base)
        for side, index in (("left", 0), ("right", 2)):
            for value in FLAVORS:
                if value == base[index]:
                    continue
                varied = list(base)
                varied[index] = value
                new_set = hidden_set(tuple(varied))
                if new_set != base_set:
                    out.append((base, side, value, base_set - new_set, new_set - base_set))
    return out


def nonlocal_witnesses() -> list[tuple]:
    """(base, side, new value, remote edge, old outputs, new outputs)."""
    out = []
    for base in TRIPLES:
        for side, index, remote in (("left", 0, "r_out"), ("right", 2, "l_out")):
            old = output_set(base, remote)
            for value in FLAVORS:
                if value == base[index]:
                    continue
                varied = list(base)
                varied[index] = value
                new = output_set(tuple(varied), remote)
                if new != old:
                    out.append((base, side, value, remote, old, new))
    return out


def epistemic(center: str, known: dict[str, str]) -> dict[tuple[str, str], Fraction]:
    lefts = [known["l_in"]] if "l_in" in known else list(FLAVORS)
    rights = [known["r_in"]] if "r_in" in known else list(FLAVORS)
    pairs = [(l, r) for l in lefts for r in rights]
    return {
        h: Fraction(sum(1 for l, r in pairs if h in hidden_set((l, center, r))), len(pairs))
        for h in production_pairs(center)
    }


def cell_marginal(t, edge: str) -> dict[str, Fraction]:
    sols = cell_solutions(*t)
    return {f: Fraction(sum(1 for s in sols if getattr(s, edge) == f), len(sols)) for f in FLAVORS}


def signalling(target: str, remote: str, context: dict[str, str]) -> Fraction:
    marginals = []
    for value in FLAVORS:
        inputs = {**context, remote: value}
        marginals.append(cell_marginal((inputs["l_in"], inputs["c_in"], inputs["r_in"]), target))
    return max(
        sum((abs(m1[f] - m2[f]) for f in FLAVORS), Fraction(0)) / 2
        for m1, m2 in itertools.combinations(marginals, 2)
    )


def loop_solutions(left: str, center: str, channel: str) -> list[tuple]:
    image = dict(zip(FLAVORS, channel))
    found = [
        ((s.h_left, s.h_right), s.l_out, s.r_in, s.r_out)
        for right in FLAVORS
        for s in cell_solutions(left, center, right)
        if s.r_in == image[s.l_out]
    ]
    return sorted(found)


def loop_exclusions(left: str, center: str, channel: str) -> list[tuple[str, str]]:
    free = {(s.h_left, s.h_right) for r in FLAVORS for s in cell_solutions(left, center, r)}
    looped = {sol[0] for sol in loop_solutions(left, center, channel)}
    return sorted(free - looped)


def canonical(t) -> str:
    """Least (left, right) image with center A under relabeling and reflection."""
    best = None
    for images in itertools.permutations(FLAVORS):
        p = dict(zip(FLAVORS, images))
        if p[t[1]] != "A":
            continue
        for mapped in ((p[t[0]], "A", p[t[2]]), (p[t[2]], "A", p[t[0]])):
            if best is None or mapped < best:
                best = mapped
    return label(best)


# --- chains of k cells, as built by the package's `build_chain` ---


def cell_edge_names(k: int, i: int) -> dict[str, str]:
    """Edge id of each cell field in cell i (1-based) of chain:k."""
    if k == 1:
        return {f: f for f in CELL_EDGES}
    names = {
        "c_in": "c_in" if i == 1 else f"c_mid.{i}",
        "l_in": f"l_in.{i}",
        "r_in": f"r_in.{i}",
        "h_left": f"h_left.{i}",
        "h_right": f"h_right.{i}",
        "l_out": f"l_out.{i}",
    }
    if i == k:
        names["r_out"] = f"r_out.{k}"
    return names


def chain_edges(k: int) -> list[str]:
    return sorted(e for i in range(1, k + 1) for e in cell_edge_names(k, i).values())


def chain_interventions(k: int) -> list[str]:
    return sorted(
        n for i in range(1, k + 1) for f, n in cell_edge_names(k, i).items()
        if f in ("l_in", "r_in") or n == "c_in"
    )


def chain_observations(k: int) -> list[str]:
    return sorted(
        n for i in range(1, k + 1) for f, n in cell_edge_names(k, i).items() if f in ("l_out", "r_out")
    )


def chain_hidden(k: int) -> list[str]:
    return sorted(set(chain_edges(k)) - set(chain_interventions(k)) - set(chain_observations(k)))


def _cell_options(k: int, i: int, pins: dict[str, str]) -> list[CellSolution]:
    names = cell_edge_names(k, i)
    checks = [(f, pins[n]) for f, n in names.items() if n in pins]
    return [s for s in CELL if all(getattr(s, f) == v for f, v in checks)]


def chain_solutions(k: int, pins: dict[str, str]) -> list[dict[str, str]]:
    """Every admissible assignment of chain:k extending `pins`, in canonical
    order (sorted by flavors along ascending edge ids)."""
    options = [_cell_options(k, i, pins) for i in range(1, k + 1)]
    names = [cell_edge_names(k, i) for i in range(1, k + 1)]
    out: list[dict[str, str]] = []

    def extend(i: int, prev: CellSolution | None, acc: dict[str, str]) -> None:
        if i == k:
            out.append(dict(acc))
            return
        for s in options[i]:
            if prev is not None and (s.c_in != prev.r_out or (prev.ann_r_hom and s.prod_hom)):
                continue
            added = {n: getattr(s, f) for f, n in names[i].items()}
            acc.update(added)
            extend(i + 1, s, acc)
            for n in added:
                del acc[n]

    extend(0, None, {})
    edges = chain_edges(k)
    out.sort(key=lambda a: tuple(a[e] for e in edges))
    return out


def chain_count(k: int, pins: dict[str, str]) -> int:
    """Number of admissible assignments of chain:k extending `pins`."""
    states: dict[tuple, int] = {(None, False): 1}
    for i in range(1, k + 1):
        options = _cell_options(k, i, pins)
        nxt: dict[tuple, int] = defaultdict(int)
        for (c_prev, prev_hom), n in states.items():
            for s in options:
                if c_prev is not None and s.c_in != c_prev:
                    continue
                if prev_hom and s.prod_hom:
                    continue
                nxt[(s.r_out, s.ann_r_hom)] += n
        states = nxt
    return sum(states.values())


def inhomogeneous_witness(k: int, rng) -> dict[str, str]:
    """A seeded assignment of chain:k in which every node is inhomogeneous,
    restricted to its intervention and hidden edges."""
    out: dict[str, str] = {}
    center = rng.choice(FLAVORS)
    for i in range(1, k + 1):
        names = cell_edge_names(k, i)
        s = rng.choice([
            s for s in CELL
            if s.c_in == center and not (s.prod_hom or s.ann_l_hom or s.ann_r_hom)
        ])
        for f in ("c_in", "l_in", "r_in", "h_left", "h_right"):
            out[names[f]] = getattr(s, f)
        center = s.r_out
    return out


def sweep_inputs(k: int) -> int:
    """Input assignments in the chain sweep over 1..k cells."""
    return sum(3 ** len(chain_interventions(j)) for j in range(1, k + 1))


def self_check(brute_force_complete, build_chain) -> None:
    """Hold this restatement to the stated constants and to the package's
    brute-force oracle on chain:1 (raises AssertionError on disagreement)."""
    for k, expected in CHAIN_COUNTS.items():
        if chain_count(k, {}) != expected:
            raise AssertionError(f"reference count of chain:{k} is not {expected}")
    if len(retro_witnesses()) != RETRO_WITNESS_COUNT:
        raise AssertionError(f"reference retro list does not have {RETRO_WITNESS_COUNT} entries")
    if sweep_inputs(4) != SWEEP_4_INPUTS:
        raise AssertionError(f"reference sweep size is not {SWEEP_4_INPUTS}")
    oracle = brute_force_complete(build_chain(1).structure, {})
    if oracle != chain_solutions(1, {}):
        raise AssertionError("reference cell solutions differ from brute_force_complete on chain:1")
