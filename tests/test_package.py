"""The package surface: lazily loaded public names, what each CLI command
loads, and the records that replaced dataclasses."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import helsinki
from helsinki import cli, solver
from helsinki.structure import Edge, Endpoint, Structure, Violation, build_chain, build_h_cell, serialize_scenario

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: module -> the names `import helsinki` has always offered from it, in order
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
        "ALL_PERMUTATIONS", "FLAVORS", "annihilation_output", "apply_permutation", "node_admissible",
        "production_completions",
    ],
    "prob": [
        "CompletionDistribution", "EmptySupportError", "completion_distribution", "epistemic_state", "marginal",
        "signalling_score", "total_variation",
    ],
    "render": ["render"],
    "solver": [
        "SolveResult", "brute_force_complete", "complete", "count_completions", "has_completion", "is_admissible",
    ],
    "structure": [
        "Endpoint", "InvalidStructureError", "ParseError", "Scenario", "Structure", "Violation", "build_chain",
        "build_h_cell", "intervention_edges", "longest_node_path", "observation_edges", "hidden_edges",
        "parse_scenario", "parse_scenario_document", "reverse_time", "serialize_scenario", "validate_topology",
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


def test_solve_loads_no_analysis(tmp_path):
    path = tmp_path / "cell.json"
    path.write_text(serialize_scenario(build_h_cell()))
    loaded = loaded_after(
        f"from helsinki import cli\nassert cli.run(['solve', '--structure', {str(path)!r}]).exit_code == 0"
    )
    assert "helsinki.solver" in loaded
    assert not loaded & {"helsinki.analysis", "helsinki.prob", "helsinki.loops", "helsinki.render", "dataclasses"}


def test_a_usage_error_loads_no_engine():
    loaded = loaded_after(
        "from helsinki import cli\n"
        "assert cli.run(['hidden', '--left', 'D', '--center', 'A', '--right', 'A']).exit_code == 2"
    )
    assert not loaded & {"helsinki.structure", "helsinki.solver", "helsinki.analysis"}


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


def test_dir_and_star_import_offer_every_name():
    assert set(helsinki.__all__) <= set(dir(helsinki))
    namespace: dict = {}
    exec("from helsinki import *", namespace)
    assert set(helsinki.__all__) <= set(namespace)
    assert namespace["EmptySupportError"] is helsinki.prob.EmptySupportError


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="no attribute 'conjure'"):
        helsinki.conjure  # noqa: B018
    with pytest.raises(ImportError):
        exec("from helsinki import conjure", {})


def test_submodules_stay_reachable_as_attributes():
    assert "helsinki.loops" in loaded_after("import helsinki\nassert helsinki.loops.parse_channel('ACB')")
    assert helsinki.solver is solver
    assert helsinki.__version__ == "0.1.0"


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
    edge = Edge(Endpoint.at_terminal("c", "past"), Endpoint.at_port("p", "in1"))
    assert (edge.source, edge.target) == tuple(edge)
    assert helsinki.Scenario._fields == ("structure", "roles")
    assert helsinki.SolveResult._fields == ("solutions", "explored")
    assert helsinki.ConsistencyReport._fields == ("family", "max_cells", "checked", "counterexample")
    assert helsinki.StateTable._fields == ("columns", "rows")
    assert helsinki.LoopSweepReport._fields == ("total", "failures")
    assert helsinki.CompletionDistribution._fields == ("support",)
    assert cli.CommandResult._fields == ("exit_code", "payload")
