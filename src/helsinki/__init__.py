"""Constraint-satisfaction engine and analyses for the Helsinki flavor model.

Each public name below loads its module on first use (PEP 562), so
`import helsinki` alone loads no submodule.
"""

import sys
from importlib import import_module
from types import ModuleType

#: module -> the public names it gives the package
_EXPORTS = {
    "analysis": "ALL_INPUT_TRIPLES ConsistencyReport InputTriple NonlocalWitness RetroWitness StateTable"
    " Transform canonicalize_inputs check_all_inputs consistency_sweep hidden_state_set input_classes"
    " nonlocality_witnesses retro_witnesses state_table",
    "loops": "ALL_CHANNELS Channel LoopSolution LoopSweepReport channel_to_string loop_exclusions"
    " loop_universality parse_channel solve_loop",
    "model": "ALL_PERMUTATIONS EmptySupportError FLAVORS InvalidStructureError annihilation_output"
    " apply_permutation node_admissible production_completions",
    "prob": "CompletionDistribution completion_distribution epistemic_state marginal signalling_score"
    " total_variation",
    "render": "render",
    "solver": "SolveResult brute_force_complete complete count_completions has_completion is_admissible",
    "structure": "Endpoint ParseError Scenario Structure Violation build_chain build_h_cell"
    " intervention_edges longest_node_path parse_scenario"
    " parse_scenario_document reverse_time serialize_scenario validate_topology",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
        return value
    if name in _EXPORTS:  # a submodule not imported yet
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    """The import system binds each submodule it loads on the package; an
    exported name (`render`) keeps naming the function, not its module."""

    def __setattr__(self, name: str, value: object) -> None:
        if name not in _MODULE_OF or not isinstance(value, ModuleType):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
