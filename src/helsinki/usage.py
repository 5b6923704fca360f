"""The argparse parser of the command line, built from the flag table `cli._COMMANDS`.

`cli.run` reads a plain command line straight from that table. It builds
this parser, and so loads argparse, only for help, usage errors and every
other spelling of a command line. The table comes in as an argument: run
as `python -m helsinki.cli`, the CLI module is `__main__`, and importing
`helsinki.cli` here would compile it a second time. The parser formats the
help and a usage error; the help is printed as a result is, and `cli.run`
writes a usage error, both by the CLI's stream rules.
"""

from __future__ import annotations

import argparse
import sys


def _checked(convert):
    """`convert` for argparse: the message of its ValueError becomes the usage error."""
    def convert_or_fail(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return convert_or_fail


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose one write is the help, printed as `cli.run` prints a result (argparse's own rules
    for writing changed in 3.11.7 and 3.12): a closed stdout takes nothing and a failed write raises. A usage error
    ends the parse with its lines as the exit message, which `run` writes on stderr."""

    def print_help(self, file=None) -> None:
        print(self.format_help(), end="", file=file)

    def error(self, message: str):
        sys.exit(f"{self.format_usage()}{self.prog}: error: {message}")


def build_parser(commands: dict, outputs: tuple) -> argparse.ArgumentParser:
    """The parser of `commands`, laid out as `cli._COMMANDS`, after a global `--output` of one of `outputs`."""
    parser = _Parser(
        prog="helsinki",
        description="Admissible-assignment analyses of three-flavor production/annihilation structures.",
    )
    parser.add_argument("--output", choices=outputs, default="text", help="output format")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in commands.items():
        p = sub.add_parser(command, help=help_text)
        pair = p.add_mutually_exclusive_group(required=True) if any(isinstance(f.required, str) for f in flags) else p
        for f in flags:
            kind = {"metavar": f.metavar} if f.metavar else {}
            if isinstance(f.convert, str):  # the name of an argparse action: append or store_true
                kind["action"] = f.convert
            elif isinstance(f.convert, tuple):
                kind["choices"] = f.convert
            else:
                kind["type"] = _checked(f.convert)
            (pair if isinstance(f.required, str) else p).add_argument(
                f.flag, required=f.required is True, help=f.help, default=f.default, **kind)
    return parser
