"""Command-line surface: one subcommand per analysis.

Every invocation produces a single structured document, printed as JSON
with --output json; the aligned text printed by default is a view of that
document, one function per command in `_TEXT`. Exit codes: 0 success,
1 domain failure (empty support, structure validation, a failed
`loop-sweep`) or an internal error, a failed write or flush of stdout
included (one line naming the exception, no traceback), 2 usage or parse
error. `run` reports every such line; a closed stdout is exit code 1 and
nothing on stderr, and so is a reader that went away (a broken pipe),
which `main` ends. A closed or failing stderr loses a line, never the
exit code. Everything is deterministic; there is no seed flag.

A call loads only what its command uses: each handler imports its own
analysis modules when it runs. A plain command line is read straight from
the flag table `_COMMANDS`; argparse loads only for help, usage errors and
other spellings, and `json` only to write JSON.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager, suppress
from types import SimpleNamespace
from typing import NamedTuple, Optional

from .model import FLAVORS, FORMATS, EmptySupportError, InvalidStructureError, check_flavor

SCHEMA_VERSION = 1


class CommandResult(NamedTuple):
    exit_code: int
    payload: Optional[dict]


# --- flag converters: each returns the value or raises ValueError ---


def _integer(text: str) -> int:
    """An optional minus sign and ASCII digits only: int() would also take "2_0", " 2", "+2" and non-ASCII
    digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)


def _channel(text: str) -> dict[str, str]:
    from .loops import parse_channel
    return parse_channel(text)


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


#: the most bytes a structure file may hold, so that a path with no end (`/dev/zero`, an endless pipe) is a
#: parse error and not a read that fills the memory
_MAX_STRUCTURE_BYTES = 64 << 20

#: the most cells `--builder chain:K` and `--max-cells K` take, so that neither builds or prints without end:
#: the largest chain whose structure file fits `_MAX_STRUCTURE_BYTES` (chain:48252 serializes to 67 108 455
#: bytes, chain:48253 to 67 109 852; each cell from 10 000 to 99 999 adds 1 397)
_MAX_CHAIN_CELLS = 48252


def _load_scenario(path: str):
    from .structure import ParseError, parse_scenario_document
    nonblocking = getattr(os, "O_NONBLOCK", 0)  # so a FIFO with no writer opens at once, and then reads as empty
    with open(path, "rb", opener=lambda name, flags: os.open(name, flags | nonblocking)) as handle:
        if nonblocking:  # blocking again, so a pipe whose writer is slow is still read to its end
            os.set_blocking(handle.fileno(), True)
        data = handle.read(_MAX_STRUCTURE_BYTES + 1)
    try:  # every parse error names the file
        if len(data) > _MAX_STRUCTURE_BYTES:
            raise ParseError(f"more than {_MAX_STRUCTURE_BYTES} bytes, the most a structure file may hold")
        try:
            text = data.decode("utf-8")  # one decode of the whole file, so the offset is the file's
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
        if "\r" in text:  # text mode's newline translation, so JSON errors keep their line and column
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        scenario, embedded = parse_scenario_document(text)
    except ParseError as exc:
        raise ParseError(f"{exc}: {path!r}") from None
    return scenario, embedded or {}


def _builder(name: str):
    from .structure import build_chain, build_h_cell
    if name == "h-cell":
        return build_h_cell()
    if name.startswith("chain:"):
        try:
            k = _integer(name[len("chain:"):])
        except ValueError:
            raise ValueError(f"--builder chain:K needs an integer, got {name!r}") from None
        if k > _MAX_CHAIN_CELLS:
            raise ValueError(f"--builder chain:K takes at most {_MAX_CHAIN_CELLS} cells, got {name!r}")
        return build_chain(k)
    raise ValueError(f"unknown builder {name!r}; expected h-cell or chain:K")


# --- handlers: each returns (payload body, exit code) ---


def _cmd_table(args):
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


def _cmd_hidden(args):
    from . import analysis
    triple = _triple_from_args(args)
    states = sorted(analysis.hidden_state_set(triple))
    return {"inputs": triple.label(), "hidden_states": ["".join(h) for h in states]}, 0


def _cmd_classes(args):
    from . import analysis
    return {"classes": [t.label() for t in analysis.input_classes()]}, 0


def _cmd_canon(args):
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


def _cmd_retro(args):
    from . import analysis
    witnesses = [
        {"base": w.base.label(), "changed_input": w.changed_input, "new_value": w.new_value,
         "lost": ["".join(h) for h in sorted(w.lost_hidden)], "gained": ["".join(h) for h in sorted(w.gained_hidden)]}
        for w in analysis.retro_witnesses()
    ]
    return {"witnesses": witnesses}, 0


def _cmd_nonlocal(args):
    from . import analysis
    witnesses = [
        {**w._asdict(), "base": w.base.label(), "old_outputs": sorted(w.old_outputs),
         "new_outputs": sorted(w.new_outputs)}
        for w in analysis.nonlocality_witnesses()
    ]
    return {"witnesses": witnesses}, 0


def _cmd_consistency(args):
    from . import analysis
    if args.structure is not None:
        scenario, _ = _load_scenario(args.structure)
        report = analysis.check_all_inputs(scenario)._replace(family=f"file:{args.structure}")
    elif args.max_cells < 1:
        raise ValueError(f"--max-cells must be at least 1, got {args.max_cells}")
    elif args.max_cells > _MAX_CHAIN_CELLS:
        raise ValueError(f"--max-cells must be at most {_MAX_CHAIN_CELLS}, got {args.max_cells}")
    else:
        report = analysis.consistency_sweep(args.max_cells)
    return report._asdict(), 0  # a file's roles and a chain's are the derived ones, so no input strands


def _cmd_loop(args):
    from . import loops
    solutions = loops.solve_loop(args.left, args.center, args.channel)
    solutions = [{**s._asdict(), "hidden": "".join(s.hidden)} for s in solutions]
    channel = loops.channel_to_string(args.channel)
    return {"left": args.left, "center": args.center, "channel": channel, "solutions": solutions}, 0


def _cmd_loop_sweep(args):
    from . import loops
    report = loops.loop_universality()
    failures = [{"channel": ch, "left": left, "center": center} for ch, left, center in report.failures]
    return {"total": report.total, "failures": failures}, 0 if not failures else 1


def _cmd_loop_exclusions(args):
    from . import loops
    excluded = ["".join(h) for h in sorted(loops.loop_exclusions(args.left, args.center, args.channel))]
    channel = loops.channel_to_string(args.channel)
    return {"left": args.left, "center": args.center, "channel": channel, "excluded": excluded}, 0


def _cmd_prob(args):
    from . import prob
    triple = _triple_from_args(args)
    dist = prob.cell_distribution({"l_in": triple.left, "c_in": triple.center, "r_in": triple.right})
    if args.marginal:
        dist_edge = prob.marginal(dist, args.marginal)
        distribution = {f: str(dist_edge[f]) for f in FLAVORS}
        return {"inputs": triple.label(), "edge": args.marginal, "distribution": distribution}, 0
    support = [{"assignment": a, "probability": str(p)} for a, p in dist.support]
    return {"inputs": triple.label(), "support": support}, 0


def _cmd_signal(args):
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


def _cmd_epistemic(args):
    from . import prob
    known = {edge: value for edge, value in (("l_in", args.l_in), ("r_in", args.r_in)) if value}
    weights = prob.epistemic_state(args.center, known)
    body = {
        "center": args.center,
        "known": dict(sorted(known.items())),
        "weights": {"".join(h): str(w) for h, w in sorted(weights.items())},
    }
    return body, 0


def _cmd_solve(args):
    from .solver import complete, count_completions
    scenario, embedded = _load_scenario(args.structure)
    assigned = {**embedded, **_parse_assignments(args.assign)}
    body: dict = {"file": args.structure, "assigned": dict(sorted(assigned.items()))}
    if args.count_only:
        return {**body, "count": count_completions(scenario.structure, assigned)}, 0
    result = complete(scenario.structure, assigned)
    return {**body, "count": len(result.solutions), "explored": result.explored, "solutions": result.solutions}, 0


def _cmd_render(args):
    from .render import render
    if args.structure is not None:
        scenario, embedded = _load_scenario(args.structure)
    else:
        scenario, embedded = _builder(args.builder), {}
    assigned = {**embedded, **_parse_assignments(args.assign)}
    return {"format": args.format, "diagram": render(scenario, assigned, args.format)}, 0


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
    "consistency": lambda body: [f"family={body['family']} checked={body['checked']} counterexample=none"],
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


# --- arguments: one table, read by `_plain_args` on plain command lines and by argparse on the rest ---

#: the `convert` of a repeatable flag and of a switch: argparse's names of their actions
_APPEND, _SWITCH = "append", "store_true"
_OUTPUTS = ("json", "text")


def _flag(flag, convert, required, help, metavar=None, default=None) -> SimpleNamespace:
    """One flag of a command: `convert` is a converter, a tuple of choices, `_APPEND` or `_SWITCH`; `required` is
    True, False or the other flag of the command's one required exclusive pair; `dest` is named as argparse does."""
    return SimpleNamespace(flag=flag, dest=flag[2:].replace("-", "_"), convert=convert, required=required, help=help,
                           metavar=metavar, default=default)


_TRIPLE = (
    _flag("--left", check_flavor, True, "left wing input"), _flag("--center", check_flavor, True, "center input"),
    _flag("--right", check_flavor, True, "right wing input"))
_LOOP = (*_TRIPLE[:2],
         _flag("--channel", _channel, True, "images of A, B, C in order, e.g. ACB maps B to C and C to B"))
_ASSIGN = _flag("--assign", _APPEND, False, "pin an edge; repeatable", "EDGE=FLAVOR")

#: command -> (handler, help, its flags in help order); a handler returns (payload body, exit code)
_COMMANDS = {
    "table": (_cmd_table, "allowed hidden states per canonical input class", ()),
    "hidden": (_cmd_hidden, "hidden states admissible under given cell inputs", _TRIPLE),
    "classes": (_cmd_classes, "the canonical input classes", ()),
    "canon": (_cmd_canon, "canonical form of an input triple", _TRIPLE),
    "retro": (_cmd_retro, "wing-input changes that alter the hidden-state set", ()),
    "nonlocal": (_cmd_nonlocal, "wing-input changes that alter the far wing's outputs", ()),
    "consistency": (_cmd_consistency, "check every input assignment admits a completion", (
        _flag("--max-cells", _integer, "--structure", "sweep chains of 1..K cells"),
        _flag("--structure", str, "--max-cells", "sweep a structure file instead of the chain family"))),
    "loop": (_cmd_loop, "cell solutions under a left-output-to-right-input channel", _LOOP),
    "loop-sweep": (_cmd_loop_sweep, "check all 27 channels x 9 input pairs stay solvable", ()),
    "loop-exclusions": (_cmd_loop_exclusions, "hidden states a feedback channel rules out", _LOOP),
    "prob": (_cmd_prob, "uniform distribution over completions of cell inputs",
             (*_TRIPLE, _flag("--marginal", str, False, "reduce to the flavor distribution at EDGE", "EDGE"))),
    "signal": (_cmd_signal, "dependence of an output marginal on a remote input", (
        _flag("--target", str, True, "observation edge to read"),
        _flag("--remote", str, False, "intervention edge to vary: r_in, the default, as --left and --center pin "
              "l_in and c_in", default="r_in"),
        _flag("--left", check_flavor, True, "pinned left wing input"),
        _flag("--center", check_flavor, True, "pinned center input"))),
    "epistemic": (_cmd_epistemic, "hidden-state weights before wing settings are fixed", (
        _TRIPLE[1], _flag("--l-in", check_flavor, False, "known left setting"),
        _flag("--r-in", check_flavor, False, "known right setting"))),
    "solve": (_cmd_solve, "enumerate admissible completions of a structure file", (
        _flag("--structure", str, True, "structure file (JSON)"), _ASSIGN,
        _flag("--count-only", _SWITCH, False, "print only the completion count", default=False))),
    "render": (_cmd_render, "draw a scenario as DOT or ascii", (
        _flag("--structure", str, "--builder", "structure file (JSON)"),
        _flag("--builder", str, "--structure", "built-in scenario: h-cell or chain:K"), _ASSIGN,
        _flag("--format", FORMATS, False, "output format", default="ascii"))),
}


def _plain_args(argv: list[str]) -> Optional[SimpleNamespace]:
    """What argparse makes of a plain command line, else None: `[--output json|text] COMMAND`, then flags spelled
    in full, each once but a repeatable one, each value one word that passes the flag's converter and does not
    start with '-', every required flag and exactly one flag of a pair."""
    output = "text"
    if argv[:1] == ["--output"]:
        output, *argv = argv[1:] or [""]
    if output not in _OUTPUTS or not argv or argv[0] not in _COMMANDS:
        return None
    args, unread = {"output": output, "command": argv[0]}, {}
    for f in _COMMANDS[argv[0]][2]:
        args[f.dest], unread[f.flag] = f.default, f
    words = iter(argv[1:])
    for word in words:
        f = unread.get(word)
        if f is None:
            return None
        if f.convert != _APPEND:  # the flag may not follow again, nor the other flag of its pair
            del unread[word]
            unread.pop(f.required, None)
        if f.convert == _SWITCH:
            args[f.dest] = True
            continue
        value = next(words, "-")
        if value.startswith("-"):
            return None
        try:
            if f.convert == _APPEND:
                value = [*(args[f.dest] or ()), value]
            elif isinstance(f.convert, tuple):
                f.convert.index(value)  # ValueError unless one of the choices
            else:
                value = f.convert(value)
        except ValueError:
            return None
        args[f.dest] = value
    return None if any(f.required for f in unread.values()) else SimpleNamespace(**args)


def build_parser():
    """The argparse parser of `_COMMANDS`, which `run` builds only for the command lines `_plain_args` leaves."""
    from .usage import build_parser
    return build_parser(_COMMANDS, _OUTPUTS)


def _say(line: str) -> None:
    """Print a diagnostic, one error line or argparse's usage error, on stderr. A closed or failing stderr loses it,
    never the call's exit code; `print` would write to stdout if `sys.stderr` were None."""
    if sys.stderr is not None:
        with suppress(OSError):
            print(line, file=sys.stderr)


def run(argv: list[str]) -> CommandResult:
    """Dispatch one invocation; structured output and the help on stdout, flushed before the return,
    diagnostics and argparse's usage error on stderr, each by the module docstring's rules. Every error becomes an
    exit code but a `BrokenPipeError` (the reader went away), which the caller ends; see module docstring for
    codes."""
    try:
        try:
            args = _plain_args(argv) or build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse has printed the help, or ends a usage error with its lines
            if isinstance(exc.code, str):
                _say(exc.code)
                return CommandResult(2, None)
            if sys.stdout is None:  # stdout is closed: the help has no reader, as for a result
                return CommandResult(1, None)
            sys.stdout.flush()
            return CommandResult(exc.code, None)
        try:
            body, exit_code = _COMMANDS[args.command][0](args)
        except (InvalidStructureError, EmptySupportError, OSError, ValueError) as exc:
            _say(f"error: {exc}")
            return CommandResult(2 if isinstance(exc, (OSError, ValueError)) else 1, None)

        if sys.stdout is None:  # stdout is closed: the result has no reader, as when one went away
            return CommandResult(1, None)
        payload = {"schema_version": SCHEMA_VERSION, "command": args.command, **body}
        with _exact_digits():
            if args.output == "json":
                import json
                print(json.dumps(payload, indent=2, sort_keys=True))
            else:
                for line in _TEXT[args.command](body):
                    print(line)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader went away while the result was written: the caller ends the call
        raise
    except Exception as exc:  # last resort, every write and flush too: no input may end in a traceback
        _say(f"error: internal: {type(exc).__name__}: {exc}")
        return CommandResult(1, None)
    return CommandResult(exit_code, payload)


def main() -> None:
    """Exit with `run`'s code, or 1 when the reader went away. What a failed write left in a buffer is then
    sent to `os.devnull`, so the interpreter's exit flush cannot fail (no `Exception ignored`, no exit 120)."""
    try:
        code = run(sys.argv[1:]).exit_code
    except BrokenPipeError:
        code = 1
    for stream in filter(None, (sys.stdout, sys.stderr)):
        try:
            stream.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
