"""Command-line surface: one subcommand per analysis.

Every invocation produces a single structured document, printed as JSON
with --output json; the aligned text printed by default is a view of that
document, one function per command in `_TEXT`. Exit codes: 0 success,
1 domain failure (empty support, structure validation, failed sweep) or an
internal error (one `error: internal:` line, no traceback), 2 usage or
parse error. Everything is deterministic; there is no seed flag.

A call loads only what its command uses: each handler imports its own
analysis modules when it runs, and parsing the arguments loads none.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from typing import NamedTuple, Optional

from .model import FLAVORS, FORMATS, EmptySupportError, InvalidStructureError, check_flavor

SCHEMA_VERSION = 1


class CommandResult(NamedTuple):
    exit_code: int
    payload: Optional[dict]


def _flavor(text: str) -> str:
    try:
        return check_flavor(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _channel(text: str) -> str:
    from .loops import parse_channel
    try:
        parse_channel(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return text


@contextmanager
def _exact_digits():
    """Lift the interpreter's int-to-text digit limit while a result is
    written, so an exact count prints in full however long it is. The
    limit guards the parsing of untrusted digits; it is restored on exit,
    before any input is read again."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _parse_assignments(pairs: Optional[list[str]]) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in pairs or []:
        edge, sep, flavor = item.partition("=")
        if not sep or not edge:
            raise ValueError(f"--assign expects EDGE=FLAVOR, got {item!r}")
        out[edge] = check_flavor(flavor)
    return out


def _load_scenario(path: str):
    from .structure import parse_scenario_document
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    scenario, embedded = parse_scenario_document(text)
    return scenario, embedded or {}


def _builder(name: str):
    from .structure import build_chain, build_h_cell
    if name == "h-cell":
        return build_h_cell()
    if name.startswith("chain:"):
        k = name[len("chain:"):]
        digits = k[1:] if k.startswith("-") else k
        # ASCII digits only: int() would also take "2_0", " 2", "+2" and non-ASCII digits
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"--builder chain:K needs an integer, got {name!r}")
        return build_chain(int(k))
    raise ValueError(f"unknown builder {name!r}; expected h-cell or chain:K")


# --- handlers: each returns (payload body, exit code) ---


def _cmd_table(args) -> tuple[dict, int]:
    from . import analysis
    table = analysis.state_table()
    rows = [
        {"inputs": t.label(), "allowed": {"".join(h): allowed[h] for h in table.columns}}
        for t, allowed in table.rows.items()
    ]
    return {"columns": ["".join(h) for h in table.columns], "rows": rows}, 0


def _triple_from_args(args):
    from .analysis import InputTriple
    return InputTriple(args.left, args.center, args.right)


def _cmd_hidden(args) -> tuple[dict, int]:
    from . import analysis
    triple = _triple_from_args(args)
    states = sorted(analysis.hidden_state_set(triple))
    return {"inputs": triple.label(), "hidden_states": ["".join(h) for h in states]}, 0


def _cmd_classes(args) -> tuple[dict, int]:
    from . import analysis
    return {"classes": [t.label() for t in analysis.input_classes()]}, 0


def _cmd_canon(args) -> tuple[dict, int]:
    from . import analysis
    triple = _triple_from_args(args)
    canonical, transform = analysis.canonicalize_inputs(triple)
    body = {
        "inputs": triple.label(),
        "canonical": canonical.label(),
        "permutation": "".join(transform.permutation[f] for f in FLAVORS),
        "reflected": transform.reflected,
    }
    return body, 0


def _cmd_retro(args) -> tuple[dict, int]:
    from . import analysis
    witnesses = analysis.retro_witnesses()
    body = {
        "witnesses": [
            {
                "base": w.base.label(),
                "changed_input": w.changed_input,
                "new_value": w.new_value,
                "lost": ["".join(h) for h in sorted(w.lost_hidden)],
                "gained": ["".join(h) for h in sorted(w.gained_hidden)],
            }
            for w in witnesses
        ]
    }
    return body, 0


def _cmd_nonlocal(args) -> tuple[dict, int]:
    from . import analysis
    witnesses = [
        {**w._asdict(), "base": w.base.label(), "old_outputs": sorted(w.old_outputs),
         "new_outputs": sorted(w.new_outputs)}
        for w in analysis.nonlocality_witnesses()
    ]
    return {"witnesses": witnesses}, 0


def _cmd_consistency(args) -> tuple[dict, int]:
    from . import analysis
    if args.structure is not None:
        scenario, _ = _load_scenario(args.structure)
        report = analysis.check_all_inputs(scenario, family=f"file:{args.structure}")
    else:
        report = analysis.consistency_sweep(args.max_cells)

    counterexample = None
    if report.counterexample is not None:
        scenario, inputs = report.counterexample
        counterexample = {
            "inputs": dict(sorted(inputs.items())),
            "nodes": len(scenario.structure.nodes),
            "edges": len(scenario.structure.edges),
        }
    return {**report._asdict(), "counterexample": counterexample}, 0 if counterexample is None else 1


def _cmd_loop(args) -> tuple[dict, int]:
    from . import loops
    solutions = loops.solve_loop(args.left, args.center, loops.parse_channel(args.channel))
    solutions = [{**s._asdict(), "hidden": "".join(s.hidden)} for s in solutions]
    return {"left": args.left, "center": args.center, "channel": args.channel, "solutions": solutions}, 0


def _cmd_loop_sweep(args) -> tuple[dict, int]:
    from . import loops
    report = loops.loop_universality()
    failures = [{"channel": ch, "left": left, "center": center} for ch, left, center in report.failures]
    return {"total": report.total, "failures": failures}, 0 if not failures else 1


def _cmd_loop_exclusions(args) -> tuple[dict, int]:
    from . import loops
    excluded = sorted(loops.loop_exclusions(args.left, args.center, loops.parse_channel(args.channel)))
    excluded = ["".join(h) for h in excluded]
    return {"left": args.left, "center": args.center, "channel": args.channel, "excluded": excluded}, 0


def _cmd_prob(args) -> tuple[dict, int]:
    from . import prob
    triple = _triple_from_args(args)
    dist = prob.cell_distribution({"l_in": triple.left, "c_in": triple.center, "r_in": triple.right})
    if args.marginal:
        dist_edge = prob.marginal(dist, args.marginal)
        distribution = {f: str(dist_edge[f]) for f in FLAVORS}
        return {"inputs": triple.label(), "edge": args.marginal, "distribution": distribution}, 0
    support = [{"assignment": a, "probability": str(p)} for a, p in dist.support]
    return {"inputs": triple.label(), "support": support}, 0


def _cmd_signal(args) -> tuple[dict, int]:
    context = {"l_in": args.left, "c_in": args.center}
    if args.remote in context:
        raise ValueError(f"remote edge {args.remote!r} collides with the context flags")
    from . import prob
    score = prob.cell_signalling_score(args.target, args.remote, context)
    body = {
        "target": args.target,
        "remote": args.remote,
        "context": dict(sorted(context.items())),
        "score": str(score),
    }
    return body, 0


def _cmd_epistemic(args) -> tuple[dict, int]:
    from . import prob
    known = {edge: value for edge, value in (("l_in", args.l_in), ("r_in", args.r_in)) if value}
    weights = prob.epistemic_state(args.center, known)
    body = {
        "center": args.center,
        "known": dict(sorted(known.items())),
        "weights": {"".join(h): str(w) for h, w in sorted(weights.items())},
    }
    return body, 0


def _cmd_solve(args) -> tuple[dict, int]:
    from .solver import complete, count_completions
    scenario, embedded = _load_scenario(args.structure)
    assigned = {**embedded, **_parse_assignments(args.assign)}
    body: dict = {"file": args.structure, "assigned": dict(sorted(assigned.items()))}
    if args.count_only:
        body["count"] = count_completions(scenario.structure, assigned)
        return body, 0
    result = complete(scenario.structure, assigned)
    body["count"] = len(result.solutions)
    body["explored"] = result.explored
    body["solutions"] = result.solutions
    return body, 0


def _cmd_render(args) -> tuple[dict, int]:
    from .render import render
    if args.structure is not None:
        scenario, embedded = _load_scenario(args.structure)
    else:
        scenario, embedded = _builder(args.builder), {}
    assigned = {**embedded, **_parse_assignments(args.assign)}
    return {"format": args.format, "diagram": render(scenario, assigned, args.format)}, 0


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


# --- text views: each turns a payload body into the lines printed without --output json ---


def _states(keys: list[str]) -> str:
    return " ".join(f"<{k}>" for k in keys)


def _pairs(assignment: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in assignment.items())


def _table_text(body: dict) -> list[str]:
    def row(cells: list[str]) -> str:
        return "  ".join(f"{cell:<6}" for cell in cells).rstrip()

    columns = body["columns"]
    lines = [row(["inputs"] + [f"<{h}>" for h in columns])]
    lines += [row([r["inputs"]] + ["yes" if r["allowed"][h] else "no" for h in columns]) for r in body["rows"]]
    return lines


def _consistency_text(body: dict) -> list[str]:
    head = f"family={body['family']} checked={body['checked']}"
    if body["counterexample"] is None:
        return [f"{head} counterexample=none"]
    return [f"{head} counterexample: {_pairs(body['counterexample']['inputs'])}"]


def _prob_text(body: dict) -> list[str]:
    if "edge" in body:
        return [f"{body['edge']}: " + "  ".join(f"{f}={p}" for f, p in body["distribution"].items())]
    return [f"p={atom['probability']}  {_pairs(atom['assignment'])}" for atom in body["support"]]


def _solve_text(body: dict) -> list[str]:
    if "solutions" not in body:
        return [f"count = {body['count']}"]
    lines = [f"solutions: {body['count']} (explored {body['explored']} candidates)"]
    return lines + [f"  {_pairs(a)}" for a in body["solutions"]]


_TEXT = {
    "table": _table_text,
    "hidden": lambda body: [f"{body['inputs']}: {_states(body['hidden_states'])}"],
    "classes": lambda body: body["classes"],
    "canon": lambda body: [
        f"{body['inputs']} -> {body['canonical']}"
        f"  (permutation {body['permutation']}, reflected {'yes' if body['reflected'] else 'no'})"
    ],
    "retro": lambda body: [
        f"{w['base']} {w['changed_input']}->{w['new_value']}"
        f"  lost: {_states(w['lost']) or '(none)'}  gained: {_states(w['gained']) or '(none)'}"
        for w in body["witnesses"]
    ],
    "nonlocal": lambda body: [
        f"{w['base']} {w['changed_input']}->{w['new_value']}"
        f"  {w['remote_edge']}: {{{','.join(w['old_outputs'])}}} -> {{{','.join(w['new_outputs'])}}}"
        for w in body["witnesses"]
    ],
    "consistency": _consistency_text,
    "loop": lambda body: [
        f"<{s['hidden']}>  left_out={s['left_out']} right_in={s['right_in']} right_out={s['right_out']}"
        for s in body["solutions"]
    ] or ["no solutions"],
    "loop-sweep": lambda body: [f"cases={body['total']} failures={len(body['failures'])}"] + [
        f"  FAIL channel={f['channel']} left={f['left']} center={f['center']}" for f in body["failures"]
    ],
    "loop-exclusions": lambda body: [f"excluded: {_states(body['excluded']) or '(none)'}"],
    "prob": _prob_text,
    "signal": lambda body: [f"score = {body['score']}"],
    "epistemic": lambda body: [f"<{h}> = {w}" for h, w in body["weights"].items()],
    "solve": _solve_text,
    "render": lambda body: [body["diagram"].rstrip("\n")],
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
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--max-cells", type=int, help="sweep chains of 1..K cells")
    group.add_argument("--structure", help="sweep a structure file instead of the chain family")

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
        body, exit_code = _HANDLERS[args.command](args)
    except (InvalidStructureError, EmptySupportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CommandResult(1, None)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CommandResult(2, None)
    except Exception as exc:  # last resort: no input may end in a traceback
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return CommandResult(1, None)

    payload = {"schema_version": SCHEMA_VERSION, "command": args.command, **body}
    with _exact_digits():
        if args.output == "json":
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for line in _TEXT[args.command](body):
                print(line)
    return CommandResult(exit_code, payload)


def main() -> None:
    try:
        code = run(sys.argv[1:]).exit_code
        sys.stdout.flush()
    except BrokenPipeError:  # the reader went away: the output is lost, but no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the exit flush must not raise again
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
