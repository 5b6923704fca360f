"""The package surface: lazily loaded public names, what each CLI command
loads, and the records that replaced dataclasses."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import helsinki
from helsinki import cli, solver
from helsinki.structure import Edge, Endpoint, Structure, Violation, build_chain, build_h_cell, serialize_scenario

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: module -> the names `import helsinki` offers from it, in order; each is listed under the module that defines it
EXPORTS = {
    "analysis": [
        "ALL_INPUT_TRIPLES", "ConsistencyReport", "InputTriple", "NonlocalWitness", "RetroWitness", "StateTable",
        "Transform", "canonicalize_inputs", "check_all_inputs", "consistency_sweep", "hidden_state_set",
        "input_classes", "nonlocality_witnesses", "retro_witnesses", "state_table",
    ],
    "loops": [
        "ALL_CHANNELS", "Channel", "LoopSolution", "LoopSweepReport", "channel_to_string", "loop_exclusions",
        "loop_universality", "parse_channel", "solve_loop",
    ],
    "model": [
        "ALL_PERMUTATIONS", "EmptySupportError", "FLAVORS", "InvalidStructureError", "annihilation_output",
        "apply_permutation", "node_admissible", "production_completions",
    ],
    "prob": [
        "CompletionDistribution", "completion_distribution", "epistemic_state", "marginal", "signalling_score",
        "total_variation",
    ],
    "render": ["render"],
    "solver": [
        "SolveResult", "brute_force_complete", "complete", "count_completions", "has_completion", "is_admissible",
    ],
    "structure": [
        "Endpoint", "ParseError", "Scenario", "Structure", "Violation", "build_chain", "build_h_cell",
        "intervention_edges", "longest_node_path", "parse_scenario", "parse_scenario_document", "reverse_time",
        "serialize_scenario", "validate_topology",
    ],
}


def loaded_after(code: str, *flags: str) -> set:
    """The modules a fresh interpreter, started with `flags`, has loaded after running `code`."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    script = f"import sys\n{code}\nprint(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True, env=env, check=True)
    return set(proc.stdout.splitlines()[-1].split())


# --- what a call loads ---


def test_importing_the_package_loads_no_submodule():
    loaded = loaded_after("import helsinki")
    assert "helsinki" in loaded
    assert not {m for m in loaded if m.startswith("helsinki.")}
    assert "dataclasses" not in loaded


#: the search engine, which the cell table does without
ENGINE = {"helsinki.solver", "helsinki.structure"}


@pytest.mark.parametrize(
    "argv", [["table"], ["classes"], ["hidden", "--left", "B", "--center", "A", "--right", "C"],
             ["canon", "--left", "C", "--center", "B", "--right", "A"], ["retro"], ["nonlocal"]],
    ids=["table", "classes", "hidden", "canon", "retro", "nonlocal"],
)
def test_cell_commands_load_only_the_analysis_layer(argv):
    loaded = loaded_after(f"from helsinki import cli\nassert cli.run({argv!r}).exit_code == 0")
    assert "helsinki.analysis" in loaded
    assert not loaded & {*ENGINE, "helsinki.prob", "helsinki.loops", "helsinki.render", "fractions", "dataclasses"}


@pytest.mark.parametrize(
    "argv", [["loop", "--left", "A", "--center", "A", "--channel", "ACB"], ["loop-sweep"],
             ["loop-exclusions", "--left", "A", "--center", "A", "--channel", "ACB"]],
    ids=["loop", "loop-sweep", "loop-exclusions"],
)
def test_loop_loads_only_the_cell_table_layers(argv):
    loaded = loaded_after(f"from helsinki import cli\nassert cli.run({argv!r}).exit_code == 0")
    assert {"helsinki.loops", "helsinki.analysis"} <= loaded
    assert not loaded & {*ENGINE, "helsinki.prob", "helsinki.render", "fractions", "dataclasses"}


@pytest.mark.parametrize(
    "argv", [["prob", "--left", "B", "--center", "A", "--right", "B"],
             ["prob", "--left", "B", "--center", "A", "--right", "A", "--marginal", "l_out"],
             ["signal", "--target", "l_out", "--remote", "r_in", "--left", "B", "--center", "A"],
             ["epistemic", "--center", "A", "--l-in", "B"]],
    ids=["prob", "prob-marginal", "signal", "epistemic"],
)
def test_prob_commands_load_only_the_cell_table_layers(argv):
    loaded = loaded_after(f"from helsinki import cli\nassert cli.run({argv!r}).exit_code == 0")
    assert {"helsinki.prob", "helsinki.analysis", "fractions"} <= loaded
    assert not loaded & {*ENGINE, "helsinki.loops", "helsinki.render", "dataclasses"}


def test_a_scenario_distribution_after_a_cell_one_loads_the_solver_then():
    # the solver is bound on the first scenario solved, also after the cell route ran first
    loaded_after(
        "from fractions import Fraction\n"
        "from helsinki import cli, prob\n"
        "assert cli.run(['prob', '--left', 'B', '--center', 'A', '--right', 'B']).exit_code == 0\n"
        "assert 'helsinki.solver' not in sys.modules\n"
        "from helsinki.solver import brute_force_complete\n"
        "from helsinki.structure import build_chain\n"
        "chain = build_chain(2)\n"
        "pins = {'c_in': 'A', 'l_in.1': 'B', 'r_in.1': 'B', 'l_in.2': 'C', 'r_in.2': 'A'}\n"
        "want = brute_force_complete(chain.structure, pins)\n"
        "dist = prob.completion_distribution(chain, pins)\n"
        "assert [a for a, _ in dist.support] == want and len(want) > 1\n"
        "assert {w for _, w in dist.support} == {Fraction(1, len(want))}\n"
    )


def test_solve_loads_no_analysis(tmp_path):
    path = tmp_path / "cell.json"
    path.write_text(serialize_scenario(build_h_cell()))
    loaded = loaded_after(
        f"from helsinki import cli\nassert cli.run(['solve', '--structure', {str(path)!r}]).exit_code == 0"
    )
    assert "helsinki.solver" in loaded
    assert not loaded & {"helsinki.analysis", "helsinki.prob", "helsinki.loops", "helsinki.render", "dataclasses"}


#: a plain call of each of the twelve cell commands
CELL_CALLS = [
    ["table"], ["classes"], ["hidden", "--left", "B", "--center", "A", "--right", "C"],
    ["canon", "--left", "C", "--center", "B", "--right", "A"], ["retro"], ["nonlocal"],
    ["loop", "--left", "A", "--center", "A", "--channel", "ACB"], ["loop-sweep"],
    ["loop-exclusions", "--left", "A", "--center", "A", "--channel", "ACB"],
    ["prob", "--left", "B", "--center", "A", "--right", "A", "--marginal", "l_out"],
    ["signal", "--target", "l_out", "--remote", "r_in", "--left", "B", "--center", "A"],
    ["epistemic", "--center", "A", "--l-in", "B"],
]
#: what only help and usage errors load
ARGPARSE = {"argparse", "gettext", "locale", "helsinki.usage"}


@pytest.mark.parametrize("argv", CELL_CALLS, ids=[argv[0] for argv in CELL_CALLS])
def test_a_plain_cell_call_loads_no_argparse_and_in_text_no_json(argv):
    loaded = loaded_after(f"from helsinki import cli\nassert cli.run({argv!r}).exit_code == 0")
    assert not loaded & {*ARGPARSE, "json"}
    loaded = loaded_after(f"from helsinki import cli\nassert cli.run({['--output', 'json', *argv]!r}).exit_code == 0")
    assert "json" in loaded
    assert not loaded & ARGPARSE


def test_the_consistency_sweep_loads_no_engine_argparse_or_json():
    loaded = loaded_after("from helsinki import analysis\nassert analysis.consistency_sweep(40).counterexample is None")
    assert "helsinki.structure" not in loaded
    assert not loaded & {"helsinki.solver", "json"}
    argv = ["consistency", "--max-cells", "4"]
    loaded = loaded_after(f"from helsinki import cli\nassert cli.run({argv!r}).exit_code == 0")
    assert "helsinki.structure" not in loaded
    assert not loaded & {"helsinki.solver", *ARGPARSE, "json"}


def test_consistency_on_a_file_loads_no_engine_or_argparse(tmp_path):
    path = tmp_path / "chain2.json"
    path.write_text(serialize_scenario(build_chain(2)))
    argv = ["consistency", "--structure", str(path)]
    loaded = loaded_after(f"from helsinki import cli\nassert cli.run({argv!r}).exit_code == 0")
    assert {"helsinki.structure", "json"} <= loaded  # parsing the file needs json
    assert not loaded & {"helsinki.solver", *ARGPARSE}


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "helsinki.cli", *argv], capture_output=True, text=True, env=env)


def test_a_bad_flavor_still_gets_argparse_usage():
    proc = run_cli("hidden", "--left", "D", "--center", "A", "--right", "A")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: helsinki hidden ")
    assert proc.stderr.endswith("error: argument --left: unknown flavor 'D'; expected one of A, B, C\n")


def test_a_usage_error_of_the_cli_module_loads_it_once():
    # run as `python -m helsinki.cli` the module is __main__; the parser builder must not import it again
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-X", "importtime", "-m", "helsinki.cli", "hidden", "--left", "D", "--center", "A",
            "--right", "A"]
    imported = [line.rpartition("|")[2].strip() for line in subprocess.run(
        argv, capture_output=True, text=True, env=env).stderr.splitlines() if line.startswith("import time:")]
    assert "helsinki.usage" in imported
    assert "helsinki.cli" not in imported


def test_help_exits_zero_and_lists_all_15_commands():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert len(cli._COMMANDS) == 15
    assert "{" + ",".join(cli._COMMANDS) + "}" in proc.stdout
    listed = [line.split()[0] for line in proc.stdout.splitlines() if line[:4] == "    " and line[4:5] != " "]
    assert listed == list(cli._COMMANDS)


def test_a_usage_error_loads_no_engine():
    loaded = loaded_after(
        "from helsinki import cli\n"
        "assert cli.run(['hidden', '--left', 'D', '--center', 'A', '--right', 'A']).exit_code == 2"
    )
    assert not loaded & {"helsinki.structure", "helsinki.solver", "helsinki.analysis"}


def test_a_colliding_signal_is_a_usage_error_that_loads_no_prob():
    loaded = loaded_after(
        "from helsinki import cli\n"
        "argv = ['signal', '--target', 'l_out', '--remote', 'l_in', '--left', 'B', '--center', 'A']\n"
        "assert cli.run(argv).exit_code == 2"
    )
    assert not loaded & {*ENGINE, "helsinki.prob", "helsinki.analysis"}


def test_every_module_loads_without_dataclasses_and_prob_brings_fractions():
    modules = ", ".join(f"helsinki.{m}" for m in [*EXPORTS, "cli"])
    loaded = loaded_after(f"import {modules}")
    assert "fractions" in loaded
    assert "dataclasses" not in loaded


def test_every_module_and_command_runs_on_the_standard_library_alone():
    # -S leaves site-packages off the path; only stdlib and the package may load
    modules = ", ".join(f"helsinki.{m}" for m in [*EXPORTS, "cli"])
    commands = [
        ["table"], ["prob", "--left", "B", "--center", "A", "--right", "B"],
        ["render", "--builder", "chain:2"], ["consistency", "--max-cells", "3"],
    ]
    runs = "".join(f"assert helsinki.cli.run({command!r}).exit_code == 0\n" for command in commands)
    loaded = loaded_after(f"import {modules}\n{runs}", "-S")
    assert "helsinki.prob" in loaded and "helsinki.render" in loaded
    outside = {m.partition(".")[0] for m in loaded} - set(sys.stdlib_module_names) - {"helsinki", "__main__"}
    assert not outside


def test_the_render_name_stays_the_function_after_its_module_loads():
    loaded_after(
        "import helsinki.render, types\n"
        "import helsinki\n"
        "from helsinki import render\n"
        "assert render is helsinki.render is sys.modules['helsinki.render'].render\n"
        "assert not isinstance(render, types.ModuleType)"
    )


# --- the public names ---


def test_all_lists_the_same_names_in_the_same_order():
    assert helsinki.__all__ == [name for names in EXPORTS.values() for name in names]


def test_each_name_is_its_module_object():
    for module, names in EXPORTS.items():
        source = importlib.import_module(f"helsinki.{module}")
        for name in names:
            assert getattr(helsinki, name) is getattr(source, name), name


def test_each_exported_class_and_function_is_listed_under_the_module_that_defines_it():
    elsewhere = []
    for module, names in helsinki._EXPORTS.items():
        source = importlib.import_module(f"helsinki.{module}")
        for name in names.split():
            value = getattr(source, name)
            # not `inspect.isclass`: before 3.11 it takes an alias such as `dict[str, str]` for a class
            is_class = issubclass(type(value), type)
            if (is_class or inspect.isfunction(value)) and value.__module__ != f"helsinki.{module}":
                elsewhere.append(f"{name} (listed under {module}, defined in {value.__module__})")
    assert not elsewhere


def test_naming_the_two_errors_loads_only_the_module_that_defines_them():
    loaded = loaded_after("import helsinki\nhelsinki.InvalidStructureError\nhelsinki.EmptySupportError")
    assert {m for m in loaded if m.startswith("helsinki.")} == {"helsinki.model"}


def test_dir_and_star_import_offer_every_name():
    assert set(helsinki.__all__) <= set(dir(helsinki))
    namespace: dict = {}
    exec("from helsinki import *", namespace)
    assert set(helsinki.__all__) <= set(namespace)
    assert namespace["EmptySupportError"] is helsinki.model.EmptySupportError


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="no attribute 'conjure'"):
        helsinki.conjure  # noqa: B018
    with pytest.raises(ImportError):
        exec("from helsinki import conjure", {})


def test_submodules_stay_reachable_as_attributes():
    assert "helsinki.loops" in loaded_after("import helsinki\nassert helsinki.loops.parse_channel('ACB')")
    assert helsinki.solver is solver
    assert helsinki.__version__ == "0.1.0"


def test_every_top_level_name_has_a_reader():
    """Each top-level function, class and constant of `src/helsinki` is read
    somewhere in the package (a loaded name, an attribute or an import), or
    is listed in `helsinki._EXPORTS`."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(helsinki.__file__).parent.glob("*.py"))}
    read = {name for names in helsinki._EXPORTS.values() for name in names.split()}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{module}.{name}" for name in names
                       if not (name.startswith("__") and name.endswith("__")) and name not in read]
    assert not unread, f"read nowhere in src/helsinki and not exported: {', '.join(unread)}"


# --- records ---


def test_structures_compare_by_value_and_stay_unhashable():
    first, second = build_chain(2).structure, build_chain(2).structure
    assert first == second and first is not second
    assert first != build_chain(3).structure
    assert first != (first.nodes, first.edges)
    with pytest.raises(TypeError):
        hash(first)
    assert repr(Structure({"p": "production"}, {})) == "Structure(nodes={'p': 'production'}, edges={})"


def test_records_keep_their_fields_and_text():
    violation = Violation("cycle", "a,b", "directed cycle through these nodes")
    assert str(violation) == "cycle [a,b]: directed cycle through these nodes"
    assert repr(violation) == "Violation(code='cycle', subject='a,b', message='directed cycle through these nodes')"
    edge = Edge(Endpoint(terminal="c", side="past"), Endpoint("p", "in1"))
    assert (edge.source, edge.target) == tuple(edge)
    assert helsinki.Scenario._fields == ("structure", "roles")
    assert helsinki.SolveResult._fields == ("solutions", "explored")
    assert helsinki.ConsistencyReport._fields == ("family", "max_cells", "checked", "counterexample")
    assert helsinki.StateTable._fields == ("columns", "rows")
    assert helsinki.LoopSweepReport._fields == ("total", "failures")
    assert helsinki.CompletionDistribution._fields == ("support",)
    assert cli.CommandResult._fields == ("exit_code", "payload")
