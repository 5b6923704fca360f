"""The four workloads: seeded inputs (set-up) and the fixed op list of one pass.

Each workload has two halves. `SETUP[name](seed, pkg, workdir)` imports
nothing new and only builds, serializes (and for `cli` writes) the inputs
the program will receive, then warms up with one small call; it is what
`setup_s` times. `OPS[name](inputs, pkg)` computes the reference
answers (untimed) and returns the ops of one pass. An op's `run` calls the
package through module attributes looked up at call time, so the tracer's
wrappers are seen; its `check` returns None for a correct result or a
message describing the wrong answer.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from io import StringIO
from random import Random
from types import SimpleNamespace
from typing import Callable, Optional

import reference as ref

FLAVORS = ref.FLAVORS
CELL_INTERVENTIONS = ("c_in", "l_in", "r_in")
CLI_COMMANDS = (
    "table", "hidden", "classes", "canon", "retro", "nonlocal", "consistency", "loop",
    "loop-sweep", "loop-exclusions", "prob", "signal", "epistemic", "solve", "render",
)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    items: int = 1


class CliFailure(Exception):
    """A CLI call that printed a traceback or exited with an undocumented code."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


def expect(value, wanted, what: str = "result") -> Optional[str]:
    return None if value == wanted else f"{what} is {value!r:.200}, expected {wanted!r:.200}"


# --- sweep: many shallow searches with every intervention pinned ---


def setup_sweep(seed: int, pkg, workdir: str) -> SimpleNamespace:
    rng = Random(seed)
    cell = pkg.structure.build_h_cell()
    chain3 = pkg.structure.build_chain(3)
    edges = ref.chain_interventions(3)
    outputs = ref.chain_observations(3)
    assignments = [dict(zip(edges, combo)) for combo in itertools.product(FLAVORS, repeat=len(edges))]
    rng.shuffle(assignments)
    marginals = [rng.choice(outputs) for _ in assignments]
    pkg.solver.has_completion(cell.structure, {})
    return SimpleNamespace(cell=cell, chain3=chain3, assignments=assignments, marginals=marginals)


def _knowns():
    for l_in in (None, *FLAVORS):
        for r_in in (None, *FLAVORS):
            known = {}
            if l_in:
                known["l_in"] = l_in
            if r_in:
                known["r_in"] = r_in
            yield known


def ops_sweep(inp, pkg) -> list[Op]:
    a, p, lp = pkg.analysis, pkg.prob, pkg.loops
    retro_ref = [(t, s, v, set(lost), set(gained)) for t, s, v, lost, gained in ref.retro_witnesses()]
    nonlocal_ref = [(t, s, v, e, set(o), set(n)) for t, s, v, e, o, n in ref.nonlocal_witnesses()]
    table_ref = ref.state_table_rows()

    def check_sweep(r):
        return expect((r.family, r.max_cells, r.checked, r.counterexample), ("chain", 4, ref.SWEEP_4_INPUTS, None))

    def check_table(r):
        rows = {t.label(): dict(allowed) for t, allowed in r.rows.items()}
        return expect(rows, table_ref, "state table")

    def check_retro(ws):
        got = [(tuple(w.base), w.changed_input, w.new_value, set(w.lost_hidden), set(w.gained_hidden)) for w in ws]
        return expect(len(got), ref.RETRO_WITNESS_COUNT, "witness count") or expect(got, retro_ref, "retro list")

    def check_nonlocal(ws):
        got = [(tuple(w.base), w.changed_input, w.new_value, w.remote_edge, set(w.old_outputs), set(w.new_outputs))
               for w in ws]
        return expect(got, nonlocal_ref, "nonlocal list")

    ops = [
        Op("analysis.consistency_sweep(4)", lambda: a.consistency_sweep(4), check_sweep, ref.SWEEP_4_INPUTS),
        Op("loops.loop_universality", lambda: lp.loop_universality(),
           lambda r: expect((r.total, r.failures), (ref.LOOP_CASES, [])), ref.LOOP_CASES),
        Op("analysis.state_table", lambda: a.state_table(), check_table, 4),
        Op("analysis.retro_witnesses", lambda: a.retro_witnesses(), check_retro, 27 * 5),
        Op("analysis.nonlocality_witnesses", lambda: a.nonlocality_witnesses(), check_nonlocal, 27 * 6),
    ]
    for center in FLAVORS:
        for known in _knowns():
            wanted = ref.epistemic(center, known)
            ops.append(Op(
                f"prob.epistemic_state({center},{known})",
                lambda c=center, k=known: p.epistemic_state(c, k),
                lambda r, w=wanted: expect(r, w),
                (1 if "l_in" in known else 3) * (1 if "r_in" in known else 3),
            ))
    for target in ("l_out", "r_out"):
        for remote in CELL_INTERVENTIONS:
            others = [e for e in CELL_INTERVENTIONS if e != remote]
            for values in itertools.product(FLAVORS, repeat=2):
                context = dict(zip(others, values))
                wanted = ref.signalling(target, remote, context)
                ops.append(Op(
                    f"prob.signalling_score({target},{remote},{context})",
                    lambda t=target, r=remote, c=context: p.signalling_score(inp.cell, t, r, c),
                    lambda r, w=wanted: expect(r, w),
                    3,
                ))
    for inputs, edge in zip(inp.assignments, inp.marginals):
        sols = ref.chain_solutions(3, inputs)
        wanted = {f: Fraction(sum(1 for s in sols if s[edge] == f), len(sols)) for f in FLAVORS}

        def run(inputs=inputs, edge=edge):
            dist = p.completion_distribution(inp.chain3, inputs)
            return dist, p.marginal(dist, edge)

        def check(r, sols=sols, wanted=wanted):
            dist, m = r
            weight = Fraction(1, len(sols))
            return (expect([a for a, _ in dist.support], sols, "support")
                    or expect({w for _, w in dist.support}, {weight}, "weights")
                    or expect(m, wanted, "marginal"))

        ops.append(Op(f"prob.completion_distribution+marginal(chain:3,{inputs},{edge})", run, check, 1))
    return ops


# --- enumerate: a few deep searches with nothing (or little) pinned ---


def _permute_flavors(pins: dict, rng: Random) -> dict:
    image = dict(zip(FLAVORS, rng.sample(FLAVORS, len(FLAVORS))))
    return {e: image[v] for e, v in pins.items()}


def setup_enumerate(seed: int, pkg, workdir: str) -> SimpleNamespace:
    rng = Random(seed)
    chains = {k: pkg.structure.build_chain(k) for k in (1, 2, 3, 4)}
    # The pinned edges, and which pinned values are equal, are fixed: each of
    # the 8 hidden edges is pinned in 3 sets and each of the 4 observation
    # edges in 6. The seed draws the flavors through one flavor permutation
    # per set. The rules treat the three flavors alike, so the search work of
    # every op, and with it the work and latencies of a pass, is the same for
    # every seed.
    base = Random(0)
    hidden = ref.chain_hidden(3) * 3
    observed = ref.chain_observations(3) * 6
    base.shuffle(observed)
    pins3 = [{h: base.choice(FLAVORS), o: base.choice(FLAVORS)} for h, o in zip(hidden, observed)]
    pins2 = [{e: base.choice(FLAVORS) for e in base.sample(ref.chain_edges(2), 3)} for _ in range(6)]
    pins3 = [_permute_flavors(pins, rng) for pins in pins3]
    pins2 = [_permute_flavors(pins, rng) for pins in pins2]
    pkg.solver.count_completions(chains[1].structure, {})
    return SimpleNamespace(chains=chains, pins3=pins3, pins2=pins2)


def ops_enumerate(inp, pkg) -> list[Op]:
    s = pkg.solver
    # chain:1 and chain:2 answers come from the package's brute-force oracle,
    # after confirming the restated rules agree with it on chain:2
    oracle2 = s.brute_force_complete(inp.chains[2].structure, {})
    if oracle2 != ref.chain_solutions(2, {}):
        raise AssertionError("reference chain:2 solutions differ from brute_force_complete")
    solutions = {1: s.brute_force_complete(inp.chains[1].structure, {}), 2: oracle2, 3: ref.chain_solutions(3, {})}

    ops = []
    for k, count in ref.CHAIN_COUNTS.items():
        ops.append(Op(f"solver.count_completions(chain:{k})",
                      lambda k=k: s.count_completions(inp.chains[k].structure, {}),
                      lambda r, c=count: expect(r, c), count))
    for k in (1, 2, 3):
        ops.append(Op(f"solver.complete(chain:{k})",
                      lambda k=k: s.complete(inp.chains[k].structure, {}),
                      lambda r, w=solutions[k]: expect(r.solutions, w, "solutions"), len(solutions[k])))
    for k, pin_sets in ((3, inp.pins3), (2, inp.pins2)):
        for pins in pin_sets:
            wanted = [a for a in solutions[k] if all(a[e] == v for e, v in pins.items())]
            ops.append(Op(f"solver.complete(chain:{k},{pins})",
                          lambda k=k, pins=pins: s.complete(inp.chains[k].structure, pins),
                          lambda r, w=wanted: expect(r.solutions, w, "solutions"), max(len(wanted), 1)))
    return ops


# --- large-file: structure documents of 150 to 400 cells ---


@dataclass
class Document:
    cells: int
    scenario: object
    witness: dict
    pins: dict
    text: str = ""


def _doc_sizes(rng: Random) -> list[int]:
    # Sizes stay inside fixed bands so that every seed does about the same
    # work; the first band is below the depth at which today's recursive
    # routines fail and the others are above it.
    return [150 + rng.randint(0, 3), 250 + rng.randint(-4, 4), 325 + rng.randint(-4, 4), 400]


def _make_document(cells: int, rng: Random, pkg) -> Document:
    witness = ref.inhomogeneous_witness(cells, rng)
    pins = {e: rng.choice(FLAVORS) for e in ref.chain_interventions(cells)}
    doc = Document(cells, pkg.structure.build_chain(cells), witness, pins)
    doc.text = pkg.structure.serialize_scenario(doc.scenario, witness)
    return doc


def setup_large_file(seed: int, pkg, workdir: str) -> SimpleNamespace:
    rng = Random(seed)
    docs = [_make_document(k, rng, pkg) for k in _doc_sizes(rng)]
    pkg.render.render(pkg.structure.build_h_cell(), {}, "ascii")
    return SimpleNamespace(docs=docs)


def _tag(edge: str, role: str, assignment: dict) -> str:
    text = f"{edge}={assignment[edge]}" if edge in assignment else edge
    return {"intervention": f"({text})", "hidden": f"~{text}~"}.get(role, f"[{text}]")


def _roles(k: int) -> dict[str, str]:
    roles = {e: "hidden" for e in ref.chain_hidden(k)}
    roles.update({e: "intervention" for e in ref.chain_interventions(k)})
    roles.update({e: "observation" for e in ref.chain_observations(k)})
    return roles


def _node_depths(k: int) -> dict[str, int]:
    if k == 1:
        return {"prod": 1, "ann_l": 2, "ann_r": 2}
    depths = {}
    for i in range(1, k + 1):
        depths[f"prod.{i}"] = 2 * i - 1
        depths[f"ann_l.{i}"] = depths[f"ann_r.{i}"] = 2 * i
    return depths


_TIER = re.compile(r"^tier (\d+) : (\S+) <(production|annihilation)>")
_PORT_TAG = re.compile(r"  (?:in1|in2|out1|out2) (\S+)")


def check_render(text: str, k: int, assignment: dict, fmt: str) -> Optional[str]:
    """Check a rendering of chain:k against the format the package documents."""
    roles = _roles(k)
    edges = ref.chain_edges(k)
    depths = _node_depths(k)
    lines = text.splitlines()
    if fmt == "ascii":
        header = f"scenario: {len(depths)} nodes, {len(edges)} edges"
        future = "future : " + "  ".join(_tag(e, "observation", assignment) for e in ref.chain_observations(k))
        past = "past   : " + "  ".join(_tag(e, "intervention", assignment) for e in ref.chain_interventions(k))
        if lines[:2] != [header, future] or lines[-1] != past:
            return "ascii header, future or past line differs"
        tiers = {}
        for line in lines[2:-1]:
            m = _TIER.match(line)
            if not m:
                return f"unexpected ascii line {line!r:.80}"
            tiers[m.group(2)] = int(m.group(1))
            for tag in _PORT_TAG.findall(line):
                edge = tag[1:-1].split("=", 1)[0]
                if edge not in roles or tag != _tag(edge, roles[edge], assignment):
                    return f"edge tag {tag} is wrong"
        return expect(tiers, depths, "node tiers")
    terminals = len(ref.chain_interventions(k)) + len(ref.chain_observations(k))
    if lines[0] != "digraph scenario {" or lines[-1] != "}":
        return "graph is not one digraph block"
    if len(lines) != 3 + len(depths) + terminals + len(edges) + 1:
        return f"graph has {len(lines)} lines"
    labels = [line.split('[label="', 1)[1].split('"', 1)[0] for line in lines if " -> " in line]
    wanted = [f"{e}={assignment[e]}" if e in assignment else e for e in edges]
    return expect(labels, wanted, "edge labels")


def ops_large_file(inp, pkg) -> list[Op]:
    st, s, r = pkg.structure, pkg.solver, pkg.render
    ops = []
    for j, doc in enumerate(inp.docs, start=1):
        k = doc.cells
        roles = _roles(k)
        if ref.chain_count(k, doc.witness) != 1:
            raise AssertionError(f"witness for chain:{k} does not fix a single completion")
        has = ref.chain_count(k, doc.pins) > 0
        tag = f"doc{j}({k} cells)"

        def check_serialized(text, k=k, doc=doc, roles=roles):
            d = json.loads(text)
            return (expect(len(d["nodes"]), 3 * k, "node count")
                    or expect(sorted(d["edges"]), ref.chain_edges(k), "edges")
                    or expect(d["roles"], roles, "roles")
                    or expect(d.get("assignment"), doc.witness, "assignment"))

        def check_parsed(result, k=k, doc=doc, roles=roles):
            scenario, assignment = result
            return (expect(sorted(scenario.structure.nodes), sorted(_node_depths(k)), "nodes")
                    or expect(sorted(scenario.structure.edges), ref.chain_edges(k), "edges")
                    or expect(scenario.roles, roles, "roles")
                    or expect(assignment, doc.witness, "assignment"))

        ops += [
            Op(f"{tag}.serialize_scenario", lambda d=doc: st.serialize_scenario(d.scenario, d.witness),
               check_serialized, k),
            Op(f"{tag}.parse_scenario_document", lambda d=doc: st.parse_scenario_document(d.text), check_parsed, k),
            Op(f"{tag}.render.ascii", lambda d=doc: r.render(d.scenario, d.witness, "ascii"),
               lambda t, d=doc: check_render(t, d.cells, d.witness, "ascii"), k),
            Op(f"{tag}.render.graph", lambda d=doc: r.render(d.scenario, d.witness, "graph"),
               lambda t, d=doc: check_render(t, d.cells, d.witness, "graph"), k),
            Op(f"{tag}.has_completion", lambda d=doc: s.has_completion(d.scenario.structure, d.pins),
               lambda v, w=has: expect(v, w), k),
            Op(f"{tag}.count_completions", lambda d=doc: s.count_completions(d.scenario.structure, d.witness),
               lambda v: expect(v, 1), k),
            Op(f"{tag}.longest_node_path", lambda d=doc: st.longest_node_path(d.scenario.structure),
               lambda v, k=k: expect(v, 2 * k), k),
        ]
    return ops


# --- cli: one `python -m helsinki.cli` child at a time ---


@dataclass
class CliCall:
    name: str
    argv: list
    check: Callable[[str], Optional[str]]
    exit_code: int = 0


@dataclass
class CliInputs:
    seed: int
    root: str
    small: str
    big: str
    witness: dict


def setup_cli(seed: int, pkg, workdir: str) -> CliInputs:
    rng = Random(seed)
    os.makedirs(workdir, exist_ok=True)
    small, big = os.path.join(workdir, "chain2.json"), os.path.join(workdir, "chain400.json")
    with open(small, "w", encoding="utf-8") as handle:
        handle.write(pkg.structure.serialize_scenario(pkg.structure.build_chain(2)))
    witness = ref.inhomogeneous_witness(400, rng)
    with open(big, "w", encoding="utf-8") as handle:
        handle.write(pkg.structure.serialize_scenario(pkg.structure.build_chain(400), witness))
    pkg.cli.build_parser()
    return CliInputs(seed, os.path.dirname(os.path.dirname(os.path.abspath(workdir))), small, big, witness)


def _triple_args(t) -> list:
    return ["--left", t[0], "--center", t[1], "--right", t[2]]


def _lines(text: str) -> list:
    return text.splitlines()


def _json_call(name, argv, check_payload, exit_code=0) -> CliCall:
    def check(out):
        payload = json.loads(out)
        return expect(payload.get("command"), argv[0], "command") or check_payload(payload)
    return CliCall(name + "[json]", ["--output", "json", *argv], check, exit_code)


def _text_call(name, argv, check_text, exit_code=0) -> CliCall:
    readme = ref.README_TEXT.get(tuple(argv))
    if readme is not None:
        return CliCall(name + "[text]", list(argv), lambda out: expect(out, readme, "output"), exit_code)
    return CliCall(name + "[text]", list(argv), check_text, exit_code)


def _call(name, argv, as_json, check_payload, check_text) -> CliCall:
    return _json_call(name, argv, check_payload) if as_json else _text_call(name, argv, check_text)


def _cli_calls(inp: CliInputs) -> list:
    rng = Random(f"cli-calls:{inp.seed}")
    witness = inp.witness
    calls = []
    rand_triple = lambda: tuple(rng.choice(FLAVORS) for _ in range(3))  # noqa: E731
    both = (False, True)

    rows = ref.state_table_rows()
    table_json = {"columns": ["AA", "BC", "CB"], "rows": [
        {"inputs": n, "allowed": {ref.hidden_key(h): v for h, v in row.items()}} for n, row in rows.items()]}
    for j in both:
        calls.append(_call("table", ["table"], j,
                           lambda p: expect({k: p[k] for k in ("columns", "rows")}, table_json), None))
        calls.append(_call("classes", ["classes"], j, lambda p: expect(p["classes"], ref.README_CLASSES),
                           lambda out: expect(_lines(out), ref.README_CLASSES)))

    retro = ref.retro_witnesses()
    retro_json = [{"base": ref.label(t), "changed_input": s, "new_value": v,
                   "lost": sorted(map(ref.hidden_key, lost)), "gained": sorted(map(ref.hidden_key, gained))}
                  for t, s, v, lost, gained in retro]
    nonlocal_ = ref.nonlocal_witnesses()
    nonlocal_json = [{"base": ref.label(t), "changed_input": s, "new_value": v, "remote_edge": e,
                      "old_outputs": sorted(o), "new_outputs": sorted(n)} for t, s, v, e, o, n in nonlocal_]
    for j in both:
        calls.append(_call("retro", ["retro"], j, lambda p: expect(p["witnesses"], retro_json),
                           lambda out: expect(len(_lines(out)), len(retro), "line count")))
        calls.append(_call("nonlocal", ["nonlocal"], j, lambda p: expect(p["witnesses"], nonlocal_json),
                           lambda out: expect(len(_lines(out)), len(nonlocal_), "line count")))
        calls.append(_call("loop-sweep", ["loop-sweep"], j,
                           lambda p: expect((p["total"], p["failures"]), (ref.LOOP_CASES, [])), None))

        k = 2 if j else 3
        n = ref.sweep_inputs(k)
        calls.append(_call(f"consistency(max-cells {k})", ["consistency", "--max-cells", str(k)], j,
                           lambda p, k=k, n=n: expect(
                               (p["family"], p["max_cells"], p["checked"], p["counterexample"]), ("chain", k, n, None)),
                           lambda out, n=n: expect(out, f"family=chain checked={n} counterexample=none\n")))
        n2 = 3 ** len(ref.chain_interventions(2))
        family = f"file:{inp.small}"
        calls.append(_call("consistency(chain:2 file)", ["consistency", "--structure", inp.small], j,
                           lambda p, n=n2, f=family: expect((p["family"], p["checked"], p["counterexample"]),
                                                            (f, n, None)),
                           lambda out, n=n2, f=family: expect(out, f"family={f} checked={n} counterexample=none\n")))

    def hidden_call(t, j):
        states = sorted(ref.hidden_set(t))
        return _call(f"hidden({ref.label(t)})", ["hidden", *_triple_args(t)], j,
                     lambda p: expect(p["hidden_states"], [ref.hidden_key(h) for h in states]),
                     lambda out: expect(out, f"{ref.label(t)}: " + " ".join(map(ref.hidden_text, states)) + "\n"))

    calls += [hidden_call(("B", "A", "B"), False), hidden_call(("B", "A", "A"), False)]
    calls += [hidden_call(rand_triple(), i % 2 == 0) for i in range(12)]

    for i in range(12):
        t = rand_triple()
        canon = ref.canonical(t)

        def check_canon(p, t=t, canon=canon):
            perm = dict(zip(FLAVORS, p["permutation"]))
            mapped = [perm[x] for x in t]
            if p["reflected"]:
                mapped.reverse()
            return expect(p["canonical"], canon) or expect(ref.label(mapped), canon, "transformed input")

        calls.append(_call(f"canon({ref.label(t)})", ["canon", *_triple_args(t)], i % 2 == 0, check_canon,
                           lambda out, t=t, canon=canon: None if f"{ref.label(t)} -> {canon} " in out
                           else f"canonical {canon} missing"))

    def loop_call(left, center, channel, j):
        sols = ref.loop_solutions(left, center, channel)
        payload = [{"hidden": ref.hidden_key(h), "left_out": lo, "right_in": ri, "right_out": ro}
                   for h, lo, ri, ro in sols]
        text = "".join(f"{ref.hidden_text(h)}  left_out={lo} right_in={ri} right_out={ro}\n"
                       for h, lo, ri, ro in sols) or "no solutions\n"
        return _call(f"loop({left},{center},{channel})",
                     ["loop", "--left", left, "--center", center, "--channel", channel], j,
                     lambda p: expect(p["solutions"], payload), lambda out: expect(out, text))

    def exclusions_call(left, center, channel, j):
        excluded = ref.loop_exclusions(left, center, channel)
        text = "excluded: " + (" ".join(map(ref.hidden_text, excluded)) or "(none)") + "\n"
        return _call(f"loop-exclusions({left},{center},{channel})",
                     ["loop-exclusions", "--left", left, "--center", center, "--channel", channel], j,
                     lambda p: expect(p["excluded"], [ref.hidden_key(h) for h in excluded]),
                     lambda out: expect(out, text))

    rand_channel = lambda: "".join(rng.choice(FLAVORS) for _ in range(3))  # noqa: E731
    calls.append(loop_call("A", "A", "ACB", False))
    calls += [loop_call(rng.choice(FLAVORS), rng.choice(FLAVORS), rand_channel(), i % 2 == 0) for i in range(9)]
    calls.append(exclusions_call("B", "A", "AAA", False))
    calls += [exclusions_call(rng.choice(FLAVORS), rng.choice(FLAVORS), rand_channel(), i % 2 == 0)
              for i in range(7)]

    def prob_call(t, edge, j):
        inputs = dict(zip(("l_in", "c_in", "r_in"), t))
        sols = ref.chain_solutions(1, inputs)
        weight = str(Fraction(1, len(sols)))
        argv = ["prob", *_triple_args(t)]
        if edge:
            dist = {f: str(v) for f, v in ref.cell_marginal(t, edge).items()}
            return _call(f"prob({ref.label(t)},{edge})", argv + ["--marginal", edge], j,
                         lambda p: expect(p["distribution"], dist),
                         lambda out: None if all(f"{f}={v}" in out for f, v in dist.items()) else "marginal differs")
        support = [{"assignment": dict(sorted(a.items())), "probability": weight} for a in sols]
        return _call(f"prob({ref.label(t)})", argv, j, lambda p: expect(p["support"], support),
                     lambda out: expect([line.split()[0] for line in _lines(out)], [f"p={weight}"] * len(sols)))

    calls.append(prob_call(("B", "A", "A"), "l_out", True))
    calls += [prob_call(rand_triple(), rng.choice((None, "l_out", "r_out")) if i % 2 else None, i % 3 == 0)
              for i in range(11)]

    for i in range(10):
        target, left, center = rng.choice(("l_out", "r_out")), rng.choice(FLAVORS), rng.choice(FLAVORS)
        score = str(ref.signalling(target, "r_in", {"l_in": left, "c_in": center}))
        calls.append(_call(f"signal({target},{left},{center})",
                           ["signal", "--target", target, "--remote", "r_in", "--left", left, "--center", center],
                           i % 2 == 0, lambda p, s=score: expect(p["score"], s),
                           lambda out, s=score: expect(out, f"score = {s}\n")))

    for i in range(10):
        center = rng.choice(FLAVORS)
        known = {e: rng.choice(FLAVORS) for e in ("l_in", "r_in") if rng.random() < 0.5}
        weights = ref.epistemic(center, known)
        argv = ["epistemic", "--center", center] + [a for e, v in known.items() for a in (f"--{e.replace('_', '-')}", v)]
        calls.append(_call(f"epistemic({center},{known})", argv, i % 2 == 0,
                           lambda p, w=weights: expect(p["weights"], {ref.hidden_key(h): str(v) for h, v in w.items()}),
                           lambda out, w=weights: expect(
                               out, "".join(f"{ref.hidden_text(h)} = {v}\n" for h, v in sorted(w.items())))))

    for j in both:
        pins = {e: rng.choice(FLAVORS) for e in rng.sample(ref.chain_edges(2), 2)}
        count = ref.chain_count(2, pins)
        calls.append(_call(f"solve(chain:2 file,count-only,{pins})",
                           ["solve", "--structure", inp.small, "--count-only",
                            *[a for e, v in pins.items() for a in ("--assign", f"{e}={v}")]], j,
                           lambda p, c=count: expect(p["count"], c), lambda out, c=count: expect(out, f"count = {c}\n")))
        pins = {e: rng.choice(FLAVORS) for e in ref.chain_interventions(2)}
        sols = ref.chain_solutions(2, pins)
        calls.append(_call(f"solve(chain:2 file,{pins})",
                           ["solve", "--structure", inp.small,
                            *[a for e, v in pins.items() for a in ("--assign", f"{e}={v}")]], j,
                           lambda p, s=sols: expect((p["count"], p["solutions"]),
                                                    (len(s), [dict(sorted(a.items())) for a in s])),
                           lambda out, s=sols: expect((out.split(" (")[0], len(_lines(out))),
                                                      (f"solutions: {len(s)}", 1 + len(s)))))
    calls.append(_call("solve(chain:400 file,pinned)", ["solve", "--structure", inp.big], False, None,
                       lambda out: expect((out.split(" (")[0], len(_lines(out))), ("solutions: 1", 2))))

    def render_call(name, argv, k, assignment, fmt, j):
        return _call(name, ["render", *argv, "--format", fmt], j,
                     lambda p: check_render(p["diagram"], k, assignment, fmt),
                     lambda out: check_render(out, k, assignment, fmt))

    for fmt in ("ascii", "graph"):
        e = rng.choice(ref.chain_edges(1))
        v = rng.choice(FLAVORS)
        calls.append(render_call(f"render(h-cell,{fmt})", ["--builder", "h-cell", "--assign", f"{e}={v}"],
                                 1, {e: v}, fmt, fmt == "graph"))
        k = rng.randint(2, 6)
        e = rng.choice(ref.chain_edges(k))
        calls.append(render_call(f"render(chain:{k},{fmt})", ["--builder", f"chain:{k}", "--assign", f"{e}={v}"],
                                 k, {e: v}, fmt, fmt == "ascii"))
        calls.append(render_call(f"render(chain:400 file,{fmt})", ["--structure", inp.big], 400, witness, fmt, False))

    # usage errors, documented to exit with code 2
    calls += [
        CliCall("hidden(bad flavor)", ["hidden", "--left", "D", "--center", "A", "--right", "B"],
                lambda out: expect(out, ""), 2),
        CliCall("signal(remote collides)", ["signal", "--target", "l_out", "--remote", "l_in", "--left", "A",
                                            "--center", "A"], lambda out: expect(out, ""), 2),
        CliCall("solve(missing file)", ["solve", "--structure", os.path.join(os.path.dirname(inp.small), "none.json")],
                lambda out: expect(out, ""), 2),
    ]
    return calls


def _subprocess_run(call: CliCall, inp: CliInputs, env: dict) -> str:
    proc = subprocess.run([sys.executable, "-m", "helsinki.cli", *call.argv], cwd=inp.root, env=env,
                          capture_output=True, text=True, timeout=120)
    if "Traceback (most recent call last)" in proc.stderr:
        last = proc.stderr.strip().splitlines()[-1]
        raise CliFailure(last.split(":", 1)[0])
    if proc.returncode != call.exit_code:
        raise CliFailure(f"exit {proc.returncode}")
    return proc.stdout


def _in_process_run(call: CliCall, pkg) -> str:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        result = pkg.cli.run(list(call.argv))
    if result.exit_code != call.exit_code:
        raise CliFailure(f"exit {result.exit_code}")
    return out.getvalue()


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def ops_cli(inp: CliInputs, pkg, in_process: bool = False) -> list[Op]:
    env = cli_env(inp.root)
    ops = []
    for call in _cli_calls(inp):
        if in_process:
            run = lambda c=call: _in_process_run(c, pkg)  # noqa: E731
        else:
            run = lambda c=call: _subprocess_run(c, inp, env)  # noqa: E731
        ops.append(Op(f"cli.{call.name}", run, call.check, 1))
    return ops


# The workload's own name for `throughput_per_s`, and what it counts.
THROUGHPUT = {
    "sweep": ("inputs_per_s", "input assignments decided"),
    "enumerate": ("solutions_per_s", "solutions counted or produced"),
    "large-file": ("cells_per_s", "document cells processed by each op, summed"),
    "cli": ("calls_per_s", "CLI invocations"),
}
SETUP = {"sweep": setup_sweep, "enumerate": setup_enumerate, "large-file": setup_large_file, "cli": setup_cli}
OPS = {"sweep": ops_sweep, "enumerate": ops_enumerate, "large-file": ops_large_file, "cli": ops_cli}
