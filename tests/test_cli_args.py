"""The plain command-line reader against the argparse parser built from the same flag table.

`cli._plain_args(argv)` must give exactly the namespace argparse gives, or
None so that argparse reads the line; every line of the shapes the `cli`
benchmark workload and README's CLI tour use must take the plain path.
"""

import functools
import itertools

import pytest

from helsinki import cli
from helsinki.cli import run

FILE = "chain2.json"

#: every argv shape of the `cli` benchmark workload and of README's CLI tour
SHAPES = [
    ["table"], ["classes"], ["retro"], ["nonlocal"], ["loop-sweep"],
    ["hidden", "--left", "B", "--center", "A", "--right", "B"],
    ["canon", "--left", "C", "--center", "B", "--right", "C"],
    ["consistency", "--max-cells", "4"], ["consistency", "--structure", FILE],
    ["loop", "--left", "A", "--center", "A", "--channel", "ACB"],
    ["loop-exclusions", "--left", "B", "--center", "A", "--channel", "AAA"],
    ["prob", "--left", "B", "--center", "A", "--right", "B"],
    ["prob", "--left", "B", "--center", "A", "--right", "A", "--marginal", "l_out"],
    ["signal", "--target", "l_out", "--remote", "r_in", "--left", "B", "--center", "A"],
    ["signal", "--target", "l_out", "--remote", "l_in", "--left", "A", "--center", "A"],
    ["signal", "--target", "l_out", "--left", "B", "--center", "A"],
    ["epistemic", "--center", "A"], ["epistemic", "--center", "A", "--l-in", "B"],
    ["epistemic", "--center", "C", "--r-in", "A"], ["epistemic", "--center", "A", "--l-in", "B", "--r-in", "C"],
    ["solve", "--structure", FILE], ["solve", "--structure", FILE, "--count-only"],
    ["solve", "--structure", FILE, "--count-only", "--assign", "c_in=A", "--assign", "l_in.2=B"],
    ["solve", "--structure", FILE, "--assign", "c_in=A", "--assign", "l_in.1=B", "--assign", "r_in.1=C"],
    ["render", "--builder", "h-cell"], ["render", "--builder", "h-cell", "--assign", "c_in=A", "--format", "ascii"],
    ["render", "--builder", "chain:4", "--assign", "l_out.3=C", "--format", "graph"],
    ["render", "--structure", FILE, "--format", "graph"], ["render", "--structure", FILE],
]
PLAIN = SHAPES + [["--output", output, *argv] for output in ("json", "text") for argv in SHAPES]


@functools.lru_cache(maxsize=None)
def parser():
    return cli.build_parser()


def argparse_vars(argv):
    """vars() of argparse's namespace, or None where argparse ends the call (help or a usage error)."""
    try:
        return vars(parser().parse_args(argv))
    except SystemExit:
        return None


def check_agrees(argv):
    plain = cli._plain_args(list(argv))
    want = argparse_vars(list(argv))
    assert plain is None or vars(plain) == want, argv
    return plain


@pytest.mark.parametrize("argv", PLAIN, ids=" ".join)
def test_every_workload_shape_takes_the_plain_path(argv, capsys):
    plain = check_agrees(argv)
    assert plain is not None
    assert capsys.readouterr() == ("", "")


def split(argv):
    """`argv` up to its command, and its flags each with its value."""
    command = next(i for i, word in enumerate(argv) if word in cli._COMMANDS)
    words, flags = iter(argv[command + 1:]), []
    for flag in words:
        flags.append([flag] if flag == "--count-only" else [flag, next(words)])
    return argv[:command + 1], flags


@pytest.mark.parametrize("argv", PLAIN, ids=" ".join)
def test_the_plain_path_takes_the_flags_in_any_order(argv):
    head, flags = split(argv)
    for order in itertools.islice(itertools.permutations(flags), 1, 24):
        assert check_agrees(head + [word for flag in order for word in flag]) is not None


def variants(argv):
    """Command lines near `argv` that argparse reads differently, rejects or reads the same by another route."""
    head, flags = split(argv)
    command = len(head) - 1
    yield argv[:command] + argv[command + 1:]  # no command
    yield argv + ["-h"]
    yield argv[:command + 1] + ["--help"]
    yield argv + ["--"]
    yield argv[:command + 1] + ["--"] + argv[command + 1:]
    yield argv + ["--output", "json"]  # after the command
    yield ["--output"] + argv[command:]
    yield ["--output", "xml"] + argv[command:]
    yield ["--output", "json", "--output", "text"] + argv[command:]
    yield ["--out", "json"] + argv[command:]
    yield ["--output=json"] + argv[command:]
    yield argv + ["--bogus", "x"]
    yield argv + ["extra"]
    yield argv + ["--left", "A"]
    yield argv + ["--structure", FILE]
    yield argv + ["--max-cells", "2"]
    for i, (flag, *value) in enumerate(flags):
        before, after = [word for f in flags[:i] for word in f], [word for f in flags[i + 1:] for word in f]
        yield head + before + after  # missing
        yield argv + [flag, *value]  # repeated
        yield head + before + [flag, *value, *after, flag, *value]
        for spelling in (flag[:-1], flag[:4], flag.upper(), flag.replace("-", "_")):  # abbreviated or unknown
            yield head + before + [spelling, *value] + after
        if value:
            yield head + before + after + [flag]  # its value missing at the end
            yield head + before + [f"{flag}={value[0]}"] + after
            for bad in ("-1", "-", "--", "-A", "", "D", "AXB", "png", "a b", "-1 2", "3_0", " 2", "+2", "\uff12"):
                yield head + before + [flag, bad] + after


@pytest.mark.parametrize("argv", SHAPES + [["--output", "json", *SHAPES[-1]]], ids=" ".join)
def test_the_plain_reader_agrees_with_argparse_or_leaves_the_line_to_it(argv, capsys):
    for variant in variants(argv):
        check_agrees(variant)


@pytest.mark.parametrize("argv", [
    [], ["--output"], ["--output", "json"], ["-h"], ["--help"], ["--"], ["conjure"], ["--output", "json", "conjure"],
    ["consistency"], ["render"], ["render", "--format", "ascii"], ["solve"], ["solve", "--count-only"],
    ["consistency", "--max-cells", "1", "--structure", FILE], ["render", "--builder", "h-cell", "--structure", FILE],
    ["render", "--builder", "h-cell", "--builder", "chain:2"], ["render", "--builder", "h-cell", "--format", "png"],
    ["hidden", "--left", "D", "--center", "A", "--right", "A"],
    ["loop", "--left", "A", "--center", "A", "--channel", "AB"],
    ["consistency", "--max-cells", "-1"], ["consistency", "--max-cells", "-0"],
    ["epistemic", "--center", "A", "--l-in"],
    ["solve", "--structure", FILE, "--assign", "-c=A"], ["solve", "--structure", FILE, "--count-only", "--count-only"],
], ids=repr)
def test_malformed_lines_are_left_to_argparse(argv, capsys):
    assert cli._plain_args(argv) is None


def test_a_plain_line_and_its_argparse_spelling_run_alike(capsys):
    argv = ["prob", "--left", "B", "--center", "A", "--right", "A", "--marginal", "l_out"]
    assert run(argv).exit_code == 0
    plain = capsys.readouterr()
    assert run(["prob", "--left=B", "--cent", "A", "--right", "A", "--marg", "l_out"]).exit_code == 0
    assert capsys.readouterr() == plain


# --- --max-cells: ASCII digits only, as `--builder chain:K` ---


@pytest.mark.parametrize("cells", ["3_0", " 2", "2 ", "+2", "\uff12", "\u0663", "0x2", "2.0", ""])
def test_max_cells_takes_ascii_digits_only(cells, capsys):
    assert cli._plain_args(["consistency", "--max-cells", cells]) is None
    assert run(["consistency", "--max-cells", cells]).exit_code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"helsinki consistency: error: argument --max-cells: invalid int value: {cells!r}\n")


@pytest.mark.parametrize("cells, value", [("1", 1), ("007", 7), ("-1", -1), ("-0", 0)])
def test_max_cells_reads_ascii_digits_with_an_optional_minus(cells, value):
    assert cli._integer(cells) == value
    assert argparse_vars(["consistency", "--max-cells", cells])["max_cells"] == value


@pytest.mark.parametrize("cells", ["0", "-1"])
def test_max_cells_below_one_is_a_usage_error(cells, capsys):
    assert run(["consistency", "--max-cells", cells]).exit_code == 2
    assert capsys.readouterr().err == f"error: --max-cells must be at least 1, got {int(cells)}\n"
