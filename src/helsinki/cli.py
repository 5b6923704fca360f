"""Command-line surface: one subcommand per analysis.

Every invocation produces a single structured document (printed as JSON
with --output json, or as aligned text by default). Exit codes: 0 success,
1 domain failure (empty support, structure validation, failed sweep), 2
usage or parse error. Everything is deterministic; there is no seed flag.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import analysis, loops, prob
from .model import FLAVORS, HiddenState, check_flavor
from .render import FORMATS, render
from .solver import complete, count_completions
from .structure import (
    InvalidStructureError,
    Scenario,
    build_chain,
    build_h_cell,
    parse_scenario_document,
)

SCHEMA_VERSION = 1


@dataclass
class CommandResult:
    exit_code: int
    payload: Optional[dict]


def _flavor(text: str) -> str:
    try:
        return check_flavor(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _channel(text: str) -> str:
    try:
        loops.parse_channel(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return text


def _hidden_key(h: HiddenState) -> str:
    return f"{h[0]}{h[1]}"


def _hidden_text(h: HiddenState) -> str:
    return f"<{h[0]}{h[1]}>"


def _rational(x: Fraction) -> str:
    return str(x)


def _parse_assignments(pairs: Optional[list[str]]) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in pairs or []:
        edge, sep, flavor = item.partition("=")
        if not sep or not edge:
            raise ValueError(f"--assign expects EDGE=FLAVOR, got {item!r}")
        out[edge] = check_flavor(flavor)
    return out


def _load_scenario(path: str) -> tuple[Scenario, dict[str, str]]:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    scenario, embedded = parse_scenario_document(text)
    return scenario, embedded or {}


def _builder(name: str) -> Scenario:
    if name == "h-cell":
        return build_h_cell()
    if name.startswith("chain:"):
        try:
            k = int(name.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"--builder chain:K needs an integer, got {name!r}") from exc
        return build_chain(k)
    raise ValueError(f"unknown builder {name!r}; expected h-cell or chain:K")


# --- handlers: each returns (payload body, text lines, exit code) ---


def _cmd_table(args) -> tuple[dict, list[str], int]:
    table = analysis.state_table()
    rows = [
        {"inputs": t.label(), "allowed": {_hidden_key(h): allowed[h] for h in table.columns}}
        for t, allowed in table.rows.items()
    ]
    body = {"columns": [_hidden_key(h) for h in table.columns], "rows": rows}
    header = ["inputs"] + [_hidden_text(h) for h in table.columns]
    lines = ["  ".join(f"{cell:<6}" for cell in header).rstrip()]
    for t, allowed in table.rows.items():
        cells = [t.label()] + ["yes" if allowed[h] else "no" for h in table.columns]
        lines.append("  ".join(f"{cell:<6}" for cell in cells).rstrip())
    return body, lines, 0


def _triple_from_args(args) -> analysis.InputTriple:
    return analysis.InputTriple(args.left, args.center, args.right)


def _cmd_hidden(args) -> tuple[dict, list[str], int]:
    triple = _triple_from_args(args)
    states = sorted(analysis.hidden_state_set(triple))
    body = {"inputs": triple.label(), "hidden_states": [_hidden_key(h) for h in states]}
    return body, [f"{triple.label()}: " + " ".join(_hidden_text(h) for h in states)], 0


def _cmd_classes(args) -> tuple[dict, list[str], int]:
    classes = analysis.input_classes()
    return {"classes": [t.label() for t in classes]}, [t.label() for t in classes], 0


def _cmd_canon(args) -> tuple[dict, list[str], int]:
    triple = _triple_from_args(args)
    canonical, transform = analysis.canonicalize_inputs(triple)
    perm = "".join(transform.permutation[f] for f in FLAVORS)
    body = {
        "inputs": triple.label(),
        "canonical": canonical.label(),
        "permutation": perm,
        "reflected": transform.reflected,
    }
    text = (
        f"{triple.label()} -> {canonical.label()}"
        f"  (permutation {perm}, reflected {'yes' if transform.reflected else 'no'})"
    )
    return body, [text], 0


def _format_hidden_set(states) -> str:
    return " ".join(_hidden_text(h) for h in sorted(states)) or "(none)"


def _cmd_retro(args) -> tuple[dict, list[str], int]:
    witnesses = analysis.retro_witnesses()
    body = {
        "witnesses": [
            {
                "base": w.base.label(),
                "changed_input": w.changed_input,
                "new_value": w.new_value,
                "lost": [_hidden_key(h) for h in sorted(w.lost_hidden)],
                "gained": [_hidden_key(h) for h in sorted(w.gained_hidden)],
            }
            for w in witnesses
        ]
    }
    lines = [
        f"{w.base.label()} {w.changed_input}->{w.new_value}"
        f"  lost: {_format_hidden_set(w.lost_hidden)}  gained: {_format_hidden_set(w.gained_hidden)}"
        for w in witnesses
    ]
    return body, lines, 0


def _cmd_nonlocal(args) -> tuple[dict, list[str], int]:
    witnesses = analysis.nonlocality_witnesses()
    body = {
        "witnesses": [
            {
                "base": w.base.label(),
                "changed_input": w.changed_input,
                "new_value": w.new_value,
                "remote_edge": w.remote_edge,
                "old_outputs": sorted(w.old_outputs),
                "new_outputs": sorted(w.new_outputs),
            }
            for w in witnesses
        ]
    }
    lines = [
        f"{w.base.label()} {w.changed_input}->{w.new_value}"
        f"  {w.remote_edge}: {{{','.join(sorted(w.old_outputs))}}} -> {{{','.join(sorted(w.new_outputs))}}}"
        for w in witnesses
    ]
    return body, lines, 0


def _cmd_consistency(args) -> tuple[dict, list[str], int]:
    if args.structure:
        scenario, _ = _load_scenario(args.structure)
        report = analysis.check_all_inputs(scenario, family=f"file:{args.structure}")
    else:
        if args.max_cells is None:
            raise ValueError("consistency needs --max-cells or --structure")
        report = analysis.consistency_sweep(args.max_cells)

    counterexample = None
    if report.counterexample is not None:
        scenario, inputs = report.counterexample
        counterexample = {
            "inputs": dict(sorted(inputs.items())),
            "nodes": len(scenario.structure.nodes),
            "edges": len(scenario.structure.edges),
        }
    body = {
        "family": report.family,
        "max_cells": report.max_cells,
        "checked": report.checked,
        "counterexample": counterexample,
    }
    if counterexample is None:
        text = f"family={report.family} checked={report.checked} counterexample=none"
        return body, [text], 0
    inputs_text = " ".join(f"{k}={v}" for k, v in sorted(report.counterexample[1].items()))
    return body, [f"family={report.family} checked={report.checked} counterexample: {inputs_text}"], 1


def _cmd_loop(args) -> tuple[dict, list[str], int]:
    channel = loops.parse_channel(args.channel)
    solutions = loops.solve_loop(args.left, args.center, channel)
    body = {
        "left": args.left,
        "center": args.center,
        "channel": args.channel,
        "solutions": [
            {
                "hidden": _hidden_key(s.hidden),
                "left_out": s.left_out,
                "right_in": s.right_in,
                "right_out": s.right_out,
            }
            for s in solutions
        ],
    }
    lines = [
        f"{_hidden_text(s.hidden)}  left_out={s.left_out} right_in={s.right_in} right_out={s.right_out}"
        for s in solutions
    ] or ["no solutions"]
    return body, lines, 0


def _cmd_loop_sweep(args) -> tuple[dict, list[str], int]:
    report = loops.loop_universality()
    body = {
        "total": report.total,
        "failures": [
            {"channel": ch, "left": left, "center": center} for ch, left, center in report.failures
        ],
    }
    lines = [f"cases={report.total} failures={len(report.failures)}"]
    lines += [f"  FAIL channel={ch} left={left} center={center}" for ch, left, center in report.failures]
    return body, lines, 0 if not report.failures else 1


def _cmd_loop_exclusions(args) -> tuple[dict, list[str], int]:
    channel = loops.parse_channel(args.channel)
    excluded = sorted(loops.loop_exclusions(args.left, args.center, channel))
    body = {
        "left": args.left,
        "center": args.center,
        "channel": args.channel,
        "excluded": [_hidden_key(h) for h in excluded],
    }
    return body, [f"excluded: {_format_hidden_set(excluded)}"], 0


def _cmd_prob(args) -> tuple[dict, list[str], int]:
    cell = build_h_cell()
    triple = _triple_from_args(args)
    inputs = {"l_in": triple.left, "c_in": triple.center, "r_in": triple.right}
    dist = prob.completion_distribution(cell, inputs)
    if args.marginal:
        dist_edge = prob.marginal(dist, args.marginal)
        body = {
            "inputs": triple.label(),
            "edge": args.marginal,
            "distribution": {f: _rational(dist_edge[f]) for f in FLAVORS},
        }
        text = f"{args.marginal}: " + "  ".join(f"{f}={_rational(dist_edge[f])}" for f in FLAVORS)
        return body, [text], 0
    body = {
        "inputs": triple.label(),
        "support": [
            {"assignment": dict(sorted(a.items())), "probability": _rational(p)}
            for a, p in dist.support
        ],
    }
    lines = [
        f"p={_rational(p)}  " + " ".join(f"{k}={v}" for k, v in sorted(a.items()))
        for a, p in dist.support
    ]
    return body, lines, 0


def _cmd_signal(args) -> tuple[dict, list[str], int]:
    cell = build_h_cell()
    context = {"l_in": args.left, "c_in": args.center}
    if args.remote in context:
        raise ValueError(f"remote edge {args.remote!r} collides with the context flags")
    score = prob.signalling_score(cell, args.target, args.remote, context)
    body = {
        "target": args.target,
        "remote": args.remote,
        "context": dict(sorted(context.items())),
        "score": _rational(score),
    }
    return body, [f"score = {_rational(score)}"], 0


def _cmd_epistemic(args) -> tuple[dict, list[str], int]:
    known = {}
    if args.l_in:
        known["l_in"] = args.l_in
    if args.r_in:
        known["r_in"] = args.r_in
    weights = prob.epistemic_state(args.center, known)
    body = {
        "center": args.center,
        "known": dict(sorted(known.items())),
        "weights": {_hidden_key(h): _rational(w) for h, w in sorted(weights.items())},
    }
    lines = [f"{_hidden_text(h)} = {_rational(w)}" for h, w in sorted(weights.items())]
    return body, lines, 0


def _cmd_solve(args) -> tuple[dict, list[str], int]:
    scenario, embedded = _load_scenario(args.structure)
    assigned = {**embedded, **_parse_assignments(args.assign)}
    body: dict = {"file": args.structure, "assigned": dict(sorted(assigned.items()))}
    if args.count_only:
        count = count_completions(scenario.structure, assigned)
        body["count"] = count
        return body, [f"count = {count}"], 0
    result = complete(scenario.structure, assigned)
    body["count"] = len(result.solutions)
    body["explored"] = result.explored
    body["solutions"] = [dict(sorted(a.items())) for a in result.solutions]
    lines = [f"solutions: {len(result.solutions)} (explored {result.explored} candidates)"]
    lines += ["  " + " ".join(f"{k}={v}" for k, v in sorted(a.items())) for a in result.solutions]
    return body, lines, 0


def _cmd_render(args) -> tuple[dict, list[str], int]:
    if args.structure:
        scenario, embedded = _load_scenario(args.structure)
    else:
        scenario, embedded = _builder(args.builder), {}
    assigned = {**embedded, **_parse_assignments(args.assign)}
    diagram = render(scenario, assigned, args.format)
    body = {"format": args.format, "diagram": diagram}
    return body, [diagram.rstrip("\n")], 0


_HANDLERS = {
    "table": _cmd_table,
    "hidden": _cmd_hidden,
    "classes": _cmd_classes,
    "canon": _cmd_canon,
    "retro": _cmd_retro,
    "nonlocal": _cmd_nonlocal,
    "consistency": _cmd_consistency,
    "loop": _cmd_loop,
    "loop-sweep": _cmd_loop_sweep,
    "loop-exclusions": _cmd_loop_exclusions,
    "prob": _cmd_prob,
    "signal": _cmd_signal,
    "epistemic": _cmd_epistemic,
    "solve": _cmd_solve,
    "render": _cmd_render,
}


def _add_triple_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--left", type=_flavor, required=True, help="left wing input")
    parser.add_argument("--center", type=_flavor, required=True, help="center input")
    parser.add_argument("--right", type=_flavor, required=True, help="right wing input")


def _add_loop_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--left", type=_flavor, required=True, help="left wing input")
    parser.add_argument("--center", type=_flavor, required=True, help="center input")
    parser.add_argument(
        "--channel", type=_channel, required=True,
        help="images of A, B, C in order, e.g. ACB maps B to C and C to B",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="helsinki",
        description="Admissible-assignment analyses of three-flavor production/annihilation structures.",
    )
    parser.add_argument("--output", choices=("json", "text"), default="text", help="output format")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table", help="allowed hidden states per canonical input class")

    p = sub.add_parser("hidden", help="hidden states admissible under given cell inputs")
    _add_triple_flags(p)

    sub.add_parser("classes", help="the canonical input classes")

    p = sub.add_parser("canon", help="canonical form of an input triple")
    _add_triple_flags(p)

    sub.add_parser("retro", help="wing-input changes that alter the hidden-state set")
    sub.add_parser("nonlocal", help="wing-input changes that alter the far wing's outputs")

    p = sub.add_parser("consistency", help="check every input assignment admits a completion")
    p.add_argument("--max-cells", type=int, help="sweep chains of 1..K cells")
    p.add_argument("--structure", help="sweep a structure file instead of the chain family")

    p = sub.add_parser("loop", help="cell solutions under a left-output-to-right-input channel")
    _add_loop_flags(p)

    sub.add_parser("loop-sweep", help="check all 27 channels x 9 input pairs stay solvable")

    p = sub.add_parser("loop-exclusions", help="hidden states a feedback channel rules out")
    _add_loop_flags(p)

    p = sub.add_parser("prob", help="uniform distribution over completions of cell inputs")
    _add_triple_flags(p)
    p.add_argument("--marginal", metavar="EDGE", help="reduce to the flavor distribution at EDGE")

    p = sub.add_parser("signal", help="dependence of an output marginal on a remote input")
    p.add_argument("--target", required=True, help="observation edge to read")
    p.add_argument("--remote", required=True, help="intervention edge to vary")
    p.add_argument("--left", type=_flavor, required=True, help="pinned left wing input")
    p.add_argument("--center", type=_flavor, required=True, help="pinned center input")

    p = sub.add_parser("epistemic", help="hidden-state weights before wing settings are fixed")
    p.add_argument("--center", type=_flavor, required=True, help="center input")
    p.add_argument("--l-in", type=_flavor, help="known left setting")
    p.add_argument("--r-in", type=_flavor, help="known right setting")

    p = sub.add_parser("solve", help="enumerate admissible completions of a structure file")
    p.add_argument("--structure", required=True, help="structure file (JSON)")
    p.add_argument("--assign", action="append", metavar="EDGE=FLAVOR", help="pin an edge; repeatable")
    p.add_argument("--count-only", action="store_true", help="print only the completion count")

    p = sub.add_parser("render", help="draw a scenario as DOT or ascii")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--structure", help="structure file (JSON)")
    group.add_argument("--builder", help="built-in scenario: h-cell or chain:K")
    p.add_argument("--assign", action="append", metavar="EDGE=FLAVOR", help="pin an edge; repeatable")
    p.add_argument("--format", choices=FORMATS, default="ascii", help="output format")

    return parser


def run(argv: list[str]) -> CommandResult:
    """Dispatch one invocation; structured output on stdout, diagnostics on
    stderr. Never raises for user errors; see module docstring for codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return CommandResult(code, None)

    try:
        body, lines, exit_code = _HANDLERS[args.command](args)
    except (InvalidStructureError, prob.EmptySupportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CommandResult(1, None)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CommandResult(2, None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CommandResult(2, None)

    payload = {"schema_version": SCHEMA_VERSION, "command": args.command, **body}
    if args.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return CommandResult(exit_code, payload)


def main() -> None:
    sys.exit(run(sys.argv[1:]).exit_code)


if __name__ == "__main__":
    main()
