import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from helsinki import analysis, cli, loops, solver
from helsinki.cli import run
from helsinki.model import ANNIHILATION, PRODUCTION
from helsinki.structure import (
    FUTURE,
    IN_PORTS,
    OUT_PORTS,
    PAST,
    PORTS,
    Edge,
    Endpoint,
    Scenario,
    Structure,
    build_chain,
    build_h_cell,
    intervention_edges,
    memo,
    serialize_scenario,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def cell_file(tmp_path):
    path = tmp_path / "cell.json"
    path.write_text(serialize_scenario(build_h_cell()))
    return str(path)


def payload_of(capsys):
    return json.loads(capsys.readouterr().out)


# --- state table and classes ---


def test_table_payload():
    result = run(["table"])
    assert result.exit_code == 0
    assert result.payload["schema_version"] == 1
    assert result.payload["columns"] == ["AA", "BC", "CB"]
    allowed = {row["inputs"]: row["allowed"] for row in result.payload["rows"]}
    assert allowed["A_A_A"] == {"AA": False, "BC": True, "CB": True}
    assert allowed["A_A_B"] == {"AA": False, "BC": True, "CB": True}
    assert allowed["B_A_B"] == {"AA": True, "BC": True, "CB": True}
    assert allowed["B_A_C"] == {"AA": True, "BC": True, "CB": True}


def test_table_text_output(capsys):
    run(["table"])
    first = capsys.readouterr().out
    assert "<AA>" in first
    assert "A_A_A" in first
    run(["table"])
    assert capsys.readouterr().out == first


def test_json_output_is_sorted_and_parseable(capsys):
    run(["--output", "json", "table"])
    payload = payload_of(capsys)
    assert payload["command"] == "table"
    assert payload["schema_version"] == 1


def test_classes():
    result = run(["classes"])
    assert result.payload["classes"] == ["A_A_A", "A_A_B", "B_A_B", "B_A_C"]


def test_canon():
    result = run(["canon", "--left", "C", "--center", "B", "--right", "C"])
    assert result.payload["canonical"] == "B_A_B"


# --- hidden states and witnesses ---


def test_hidden_equal_wings():
    result = run(["hidden", "--left", "B", "--center", "A", "--right", "B"])
    assert result.payload["hidden_states"] == ["AA", "BC", "CB"]


def test_hidden_wing_matching_center():
    result = run(["hidden", "--left", "B", "--center", "A", "--right", "A"])
    assert result.payload["hidden_states"] == ["BC", "CB"]


def test_retro_includes_key_witness():
    result = run(["retro"])
    witnesses = result.payload["witnesses"]
    assert {
        "base": "B_A_B", "changed_input": "right", "new_value": "A",
        "lost": ["AA"], "gained": [],
    } in witnesses


def test_nonlocal_includes_key_witness():
    result = run(["nonlocal"])
    assert {
        "base": "B_A_B", "changed_input": "right", "new_value": "A",
        "remote_edge": "l_out", "old_outputs": ["A", "B", "C"], "new_outputs": ["A", "B"],
    } in result.payload["witnesses"]


# --- consistency ---


def test_consistency_chain():
    result = run(["consistency", "--max-cells", "1"])
    assert result.exit_code == 0
    assert result.payload["checked"] == 27
    assert result.payload["counterexample"] is None


def test_consistency_structure_file(cell_file):
    result = run(["consistency", "--structure", cell_file])
    assert result.exit_code == 0
    assert result.payload["checked"] == 27


def test_consistency_needs_some_target():
    assert run(["consistency"]).exit_code == 2


def test_consistency_takes_one_target_not_both(cell_file, capsys):
    assert run(["consistency", "--max-cells", "1", "--structure", cell_file]).exit_code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


@pytest.mark.parametrize("output", ["text", "json"])
def test_consistency_on_a_400_cell_file(tmp_path, capsys, output):
    path = tmp_path / "chain400.json"
    path.write_text(serialize_scenario(build_chain(400)))
    result = run(["--output", output, "consistency", "--structure", str(path)])
    assert result.exit_code == 0
    out = capsys.readouterr().out
    if output == "json":
        assert json.loads(out)["checked"] == 3**801
    else:
        assert out == f"family=file:{path} checked={3**801} counterexample=none\n"


def wide_scenario(seed, nodes=60, reach=30):
    """A random valid scenario: each out-port feeds a free in-port of a node of the other kind at most `reach`
    places later, or a future terminal, and in-ports left free are fed from the past."""
    rng = random.Random(seed)
    kinds = [rng.choice((PRODUCTION, ANNIHILATION)) for _ in range(nodes)]
    free = [(j, port) for j in range(nodes) for port in PORTS[kinds[j]] if port in IN_PORTS]
    wires = []  # (source, target); None for a terminal
    for i in range(nodes):
        for port in (p for p in PORTS[kinds[i]] if p in OUT_PORTS):
            near = [(j, p) for j, p in free if i < j <= i + reach and kinds[j] != kinds[i]]
            target = rng.choice([None, *near])
            if target is not None:
                free.remove(target)
            wires.append(((i, port), target))
    wires += [(None, target) for target in free]
    edges = {
        f"e{k}": Edge(Endpoint(f"n{source[0]}", source[1]) if source else Endpoint(terminal=f"e{k}", side=PAST),
                      Endpoint(f"n{target[0]}", target[1]) if target else Endpoint(terminal=f"e{k}", side=FUTURE))
        for k, (source, target) in enumerate(wires)
    }
    return Scenario.derive(Structure({f"n{i}": kind for i, kind in enumerate(kinds)}, edges))


def test_consistency_on_a_wide_file_runs_no_search(tmp_path, monkeypatch):
    # reach 30 makes the layout's frontier 7 edges wide: there the stranding search ran past 30 s (2 vCPUs)
    scenario = wide_scenario(7)
    assert len(scenario.structure.edges) == 120
    assert max(len(moves.project) for _, _, moves in memo(scenario.structure, solver._compile).steps) >= 7
    path = tmp_path / "wide.json"
    path.write_text(serialize_scenario(scenario))
    monkeypatch.setattr(solver, "least_stranding_input", mock.Mock(side_effect=AssertionError("the search ran")))
    result = run(["consistency", "--structure", str(path)])
    assert result.exit_code == 0
    assert result.payload["checked"] == 3 ** len(intervention_edges(scenario))
    assert result.payload["counterexample"] is None


def digits_of(n: int) -> str:
    """The decimal digits of n, past the interpreter's int-to-text digit limit, which is restored."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def chain_inputs(cells: int) -> int:
    """The inputs of chain:1..cells, 3^(2k + 1) for chain:k, summed term by term."""
    checked, term = 0, 27
    for _ in range(cells):
        checked, term = checked + term, 9 * term
    return checked


@pytest.mark.parametrize("cells, output", [
    pytest.param(cells, output, id=f"{label}{output}")
    for cells, label in ((None, ""), (5000, "5000-cells-"), (cli._MAX_CHAIN_CELLS, "cap-cells-"))
    for output in ("text", "json")
])
def test_consistency_prints_every_digit(monkeypatch, capsys, cells, output):
    # past the interpreter's default int-to-text limit of 4300 digits: a patched sweep's 10**5000, and the
    # 4 772 digits of the inputs of 1..5000 stacked cells and the 46 045 of the most cells, counted for real
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if cells is None:
        report = analysis.ConsistencyReport("chain", 1, 10**5000, None)
        monkeypatch.setattr(analysis, "consistency_sweep", lambda max_cells: report)
        digits = "1" + "0" * 5000
    else:
        digits = digits_of(chain_inputs(cells))
        assert len(digits) > 4300
    result = run(["--output", output, "consistency", "--max-cells", str(cells or 1)])
    assert result.exit_code == 0
    out = capsys.readouterr().out
    if output == "json":
        assert json.loads(out, parse_int=str)["checked"] == digits
    else:
        assert out == f"family=chain checked={digits} counterexample=none\n"
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_the_chain_cap_is_the_largest_chain_whose_structure_file_fits_the_byte_cap():
    # every cell from 10 000 to 99 999 has a five-digit tag, so each adds the same bytes to the file
    base, next_size, last = (len(serialize_scenario(build_chain(k)).encode()) for k in (10_000, 10_001, 10_002))
    step = next_size - base
    assert last - next_size == step

    def fits(k):
        return base + step * (k - 10_000) <= cli._MAX_STRUCTURE_BYTES

    assert fits(cli._MAX_CHAIN_CELLS) and not fits(cli._MAX_CHAIN_CELLS + 1)


@pytest.mark.parametrize("argv, line", [
    (["render", "--builder", "chain:48253"], "error: --builder chain:K takes at most 48252 cells, got 'chain:48253'"),
    (["render", "--builder=chain:48253"], "error: --builder chain:K takes at most 48252 cells, got 'chain:48253'"),
    (["consistency", "--max-cells", "48253"], "error: --max-cells must be at most 48252, got 48253"),
    (["consistency", "--max-cells=48253"], "error: --max-cells must be at most 48252, got 48253"),
], ids=["builder", "builder=", "max-cells", "max-cells="])
def test_a_chain_past_the_cap_is_refused_before_anything_is_built(monkeypatch, capsys, argv, line):
    assert cli._MAX_CHAIN_CELLS == 48252
    refuse = mock.Mock(side_effect=AssertionError("built"))
    monkeypatch.setattr("helsinki.structure.build_chain", refuse)
    monkeypatch.setattr(analysis, "consistency_sweep", refuse)
    assert run(argv).exit_code == 2
    assert capsys.readouterr() == ("", line + "\n")
    refuse.assert_not_called()


# --- loops ---


def test_loop_swap_channel():
    result = run(["loop", "--left", "A", "--center", "A", "--channel", "ACB"])
    assert result.payload["solutions"] == [
        {"hidden": "BC", "left_out": "C", "right_in": "B", "right_out": "A"},
        {"hidden": "CB", "left_out": "B", "right_in": "C", "right_out": "A"},
    ]


def test_loop_exclusions_constant_channel():
    result = run(["loop-exclusions", "--left", "B", "--center", "A", "--channel", "AAA"])
    assert result.payload["excluded"] == ["AA"]


@pytest.mark.parametrize("command", ["loop", "loop-exclusions"])
@pytest.mark.parametrize("spelling", [["--channel", "ACB"], ["--channel=ACB"]])
def test_loop_payloads_carry_the_channel_flag_text(command, spelling, capsys):
    # the plain spelling is read from the flag table, `--channel=ACB` by argparse
    assert run(["--output", "json", command, "--left", "A", "--center", "A", *spelling]).exit_code == 0
    assert payload_of(capsys)["channel"] == "ACB"


def test_loop_sweep():
    result = run(["loop-sweep"])
    assert result.exit_code == 0
    assert result.payload == {
        "schema_version": 1, "command": "loop-sweep", "total": 243, "failures": [],
    }


# --- probability layer ---


def test_prob_support():
    result = run(["prob", "--left", "B", "--center", "A", "--right", "B"])
    assert [atom["probability"] for atom in result.payload["support"]] == ["1/3", "1/3", "1/3"]


def test_prob_marginal():
    result = run(["prob", "--left", "B", "--center", "A", "--right", "A", "--marginal", "l_out"])
    assert result.payload["distribution"] == {"A": "1/2", "B": "1/2", "C": "0"}


def test_signal():
    result = run(["signal", "--target", "l_out", "--remote", "r_in", "--left", "B", "--center", "A"])
    assert result.payload["score"] == "1/3"


@pytest.mark.parametrize("remote", ["l_in", "c_in"])
def test_signal_rejects_remote_collision(remote):
    result = run(["signal", "--target", "l_out", "--remote", remote, "--left", "B", "--center", "A"])
    assert result.exit_code == 2


@pytest.mark.parametrize("output", ["json", "text"])
@pytest.mark.parametrize(
    "flags",
    [
        ["--target", "l_out", "--left", "B", "--center", "A"],
        ["--target=l_out", "--left=B", "--center=A"],  # argparse only
    ],
    ids=["plain", "argparse"],
)
def test_signal_varies_r_in_by_default(flags, output, capsys):
    assert (cli._plain_args(["signal", *flags]) is None) == any("=" in flag for flag in flags)
    assert run(["--output", output, "signal", *flags]).exit_code == 0
    default = capsys.readouterr()
    assert run(["--output", output, "signal", "--remote", "r_in", *flags]).exit_code == 0
    assert capsys.readouterr() == default and "1/3" in default.out


def test_epistemic():
    result = run(["epistemic", "--center", "A"])
    assert result.payload["weights"] == {"AA": "4/9", "BC": "1", "CB": "1"}


def test_epistemic_with_known_setting():
    result = run(["epistemic", "--center", "A", "--r-in", "A"])
    assert result.payload["weights"] == {"AA": "0", "BC": "1", "CB": "1"}


# --- solve and render ---


def test_solve_inputs_only(cell_file):
    result = run([
        "solve", "--structure", cell_file,
        "--assign", "l_in=B", "--assign", "c_in=A", "--assign", "r_in=C",
    ])
    assert result.exit_code == 0
    assert result.payload["count"] == 3
    expected_total = {
        "c_in": "A", "h_left": "A", "h_right": "A",
        "l_in": "B", "l_out": "C", "r_in": "C", "r_out": "B",
    }
    assert expected_total in result.payload["solutions"]


def test_solve_two_survivors_when_right_matches_center(cell_file):
    result = run([
        "solve", "--structure", cell_file,
        "--assign", "l_in=B", "--assign", "c_in=A", "--assign", "r_in=A",
    ])
    outputs = [(a["h_left"] + a["h_right"], a["l_out"], a["r_out"]) for a in result.payload["solutions"]]
    assert outputs == [("BC", "B", "B"), ("CB", "A", "C")]


def test_solve_count_only(cell_file):
    result = run(["solve", "--structure", cell_file, "--count-only"])
    assert result.payload["count"] == 66
    assert "solutions" not in result.payload


def test_solve_uses_embedded_assignment(tmp_path):
    path = tmp_path / "pinned.json"
    path.write_text(serialize_scenario(build_h_cell(), {"c_in": "A", "l_in": "A", "r_in": "A"}))
    result = run(["solve", "--structure", str(path)])
    assert result.payload["count"] == 2


def test_solve_flag_overrides_embedded(tmp_path):
    path = tmp_path / "pinned.json"
    path.write_text(serialize_scenario(build_h_cell(), {"c_in": "A", "l_in": "A", "r_in": "A"}))
    result = run(["solve", "--structure", str(path), "--assign", "r_in=B"])
    assert result.payload["count"] == 2
    assert result.payload["assigned"]["r_in"] == "B"


def test_render_builder(capsys):
    result = run(["render", "--builder", "h-cell", "--assign", "c_in=A", "--format", "ascii"])
    assert result.exit_code == 0
    assert "(c_in=A)" in result.payload["diagram"]
    assert "(c_in=A)" in capsys.readouterr().out


def test_render_chain_builder():
    result = run(["render", "--builder", "chain:2", "--format", "graph"])
    assert result.payload["diagram"].startswith("digraph")
    assert '"prod.2"' in result.payload["diagram"]


def test_render_deep_chain_builder():
    assert run(["render", "--builder", "chain:1000"]).exit_code == 0


@pytest.mark.parametrize("output", ["text", "json"])
def test_solve_on_a_400_cell_file(tmp_path, capsys, chain_400_witness, output):
    scenario, pins = chain_400_witness
    path = tmp_path / "chain400.json"
    path.write_text(serialize_scenario(scenario, pins))
    result = run(["--output", output, "solve", "--structure", str(path)])
    assert result.exit_code == 0
    assert result.payload["count"] == len(result.payload["solutions"]) == 1
    out = capsys.readouterr().out
    if output == "json":
        assert json.loads(out)["count"] == 1
    else:
        assert out.startswith("solutions: 1 ")


@pytest.mark.parametrize("output", ["text", "json"])
def test_count_only_on_an_unpinned_400_cell_file(tmp_path, capsys, chain_count, output):
    path = tmp_path / "chain400.json"
    path.write_text(serialize_scenario(build_chain(400)))
    result = run(["--output", output, "solve", "--structure", str(path), "--count-only"])
    assert result.exit_code == 0
    out = capsys.readouterr().out
    if output == "json":
        assert json.loads(out)["count"] == chain_count(400)
    else:
        assert out == f"count = {chain_count(400)}\n"


@pytest.mark.parametrize("output", ["text", "json"])
def test_count_only_prints_every_digit(monkeypatch, capsys, cell_file, output):
    # past the interpreter's default int-to-text limit of 4300 digits
    huge = 10**5000
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    monkeypatch.setattr(solver, "count_completions", lambda structure, partial: huge)
    result = run(["--output", output, "solve", "--structure", cell_file, "--count-only"])
    assert result.exit_code == 0
    out = capsys.readouterr().out
    digits = "1" + "0" * 5000
    if output == "json":
        assert json.loads(out, parse_int=str)["count"] == digits
    else:
        assert out == f"count = {digits}\n"
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_render_structure_file(cell_file):
    result = run(["render", "--structure", cell_file, "--format", "ascii"])
    assert result.exit_code == 0


# --- text output: the exact bytes of every command ---

RETRO_TEXT = """\
A_A_B left->B  lost: (none)  gained: <AA>
A_A_B left->C  lost: (none)  gained: <AA>
A_A_C left->B  lost: (none)  gained: <AA>
A_A_C left->C  lost: (none)  gained: <AA>
A_B_A left->B  lost: <BB>  gained: (none)
A_B_A right->B  lost: <BB>  gained: (none)
A_B_B right->A  lost: (none)  gained: <BB>
A_B_B right->C  lost: (none)  gained: <BB>
A_B_C left->B  lost: <BB>  gained: (none)
A_B_C right->B  lost: <BB>  gained: (none)
A_C_A left->C  lost: <CC>  gained: (none)
A_C_A right->C  lost: <CC>  gained: (none)
A_C_B left->C  lost: <CC>  gained: (none)
A_C_B right->C  lost: <CC>  gained: (none)
A_C_C right->A  lost: (none)  gained: <CC>
A_C_C right->B  lost: (none)  gained: <CC>
B_A_A right->B  lost: (none)  gained: <AA>
B_A_A right->C  lost: (none)  gained: <AA>
B_A_B left->A  lost: <AA>  gained: (none)
B_A_B right->A  lost: <AA>  gained: (none)
B_A_C left->A  lost: <AA>  gained: (none)
B_A_C right->A  lost: <AA>  gained: (none)
B_B_A left->A  lost: (none)  gained: <BB>
B_B_A left->C  lost: (none)  gained: <BB>
B_B_C left->A  lost: (none)  gained: <BB>
B_B_C left->C  lost: (none)  gained: <BB>
B_C_A left->C  lost: <CC>  gained: (none)
B_C_A right->C  lost: <CC>  gained: (none)
B_C_B left->C  lost: <CC>  gained: (none)
B_C_B right->C  lost: <CC>  gained: (none)
B_C_C right->A  lost: (none)  gained: <CC>
B_C_C right->B  lost: (none)  gained: <CC>
C_A_A right->B  lost: (none)  gained: <AA>
C_A_A right->C  lost: (none)  gained: <AA>
C_A_B left->A  lost: <AA>  gained: (none)
C_A_B right->A  lost: <AA>  gained: (none)
C_A_C left->A  lost: <AA>  gained: (none)
C_A_C right->A  lost: <AA>  gained: (none)
C_B_A left->B  lost: <BB>  gained: (none)
C_B_A right->B  lost: <BB>  gained: (none)
C_B_B right->A  lost: (none)  gained: <BB>
C_B_B right->C  lost: (none)  gained: <BB>
C_B_C left->B  lost: <BB>  gained: (none)
C_B_C right->B  lost: <BB>  gained: (none)
C_C_A left->A  lost: (none)  gained: <CC>
C_C_A left->B  lost: (none)  gained: <CC>
C_C_B left->A  lost: (none)  gained: <CC>
C_C_B left->B  lost: (none)  gained: <CC>
"""

NONLOCAL_TEXT = """\
A_A_B left->B  r_out: {A,B} -> {A,B,C}
A_A_B left->C  r_out: {A,B} -> {A,B,C}
A_A_C left->B  r_out: {A,C} -> {A,B,C}
A_A_C left->C  r_out: {A,C} -> {A,B,C}
A_B_A left->B  r_out: {A,B,C} -> {A,B}
A_B_A right->B  l_out: {A,B,C} -> {A,B}
A_B_B right->A  l_out: {A,B} -> {A,B,C}
A_B_B right->C  l_out: {A,B} -> {A,B,C}
A_B_C left->B  r_out: {A,B,C} -> {B,C}
A_B_C right->B  l_out: {A,B,C} -> {A,B}
A_C_A left->C  r_out: {A,B,C} -> {A,C}
A_C_A right->C  l_out: {A,B,C} -> {A,C}
A_C_B left->C  r_out: {A,B,C} -> {B,C}
A_C_B right->C  l_out: {A,B,C} -> {A,C}
A_C_C right->A  l_out: {A,C} -> {A,B,C}
A_C_C right->B  l_out: {A,C} -> {A,B,C}
B_A_A right->B  l_out: {A,B} -> {A,B,C}
B_A_A right->C  l_out: {A,B} -> {A,B,C}
B_A_B left->A  r_out: {A,B,C} -> {A,B}
B_A_B right->A  l_out: {A,B,C} -> {A,B}
B_A_C left->A  r_out: {A,B,C} -> {A,C}
B_A_C right->A  l_out: {A,B,C} -> {A,B}
B_B_A left->A  r_out: {A,B} -> {A,B,C}
B_B_A left->C  r_out: {A,B} -> {A,B,C}
B_B_C left->A  r_out: {B,C} -> {A,B,C}
B_B_C left->C  r_out: {B,C} -> {A,B,C}
B_C_A left->C  r_out: {A,B,C} -> {A,C}
B_C_A right->C  l_out: {A,B,C} -> {B,C}
B_C_B left->C  r_out: {A,B,C} -> {B,C}
B_C_B right->C  l_out: {A,B,C} -> {B,C}
B_C_C right->A  l_out: {B,C} -> {A,B,C}
B_C_C right->B  l_out: {B,C} -> {A,B,C}
C_A_A right->B  l_out: {A,C} -> {A,B,C}
C_A_A right->C  l_out: {A,C} -> {A,B,C}
C_A_B left->A  r_out: {A,B,C} -> {A,B}
C_A_B right->A  l_out: {A,B,C} -> {A,C}
C_A_C left->A  r_out: {A,B,C} -> {A,C}
C_A_C right->A  l_out: {A,B,C} -> {A,C}
C_B_A left->B  r_out: {A,B,C} -> {A,B}
C_B_A right->B  l_out: {A,B,C} -> {B,C}
C_B_B right->A  l_out: {B,C} -> {A,B,C}
C_B_B right->C  l_out: {B,C} -> {A,B,C}
C_B_C left->B  r_out: {A,B,C} -> {B,C}
C_B_C right->B  l_out: {A,B,C} -> {B,C}
C_C_A left->A  r_out: {A,C} -> {A,B,C}
C_C_A left->B  r_out: {A,C} -> {A,B,C}
C_C_B left->A  r_out: {B,C} -> {A,B,C}
C_C_B left->B  r_out: {B,C} -> {A,B,C}
"""

RENDER_TEXT = """\
scenario: 3 nodes, 7 edges
future : [l_out]  [r_out]
tier 2 : ann_l <annihilation>  in1 ~h_left~  in2 (l_in)  out1 [l_out]
tier 2 : ann_r <annihilation>  in1 ~h_right~  in2 (r_in)  out1 [r_out]
tier 1 : prod <production>  in1 (c_in=A)  out1 ~h_left~  out2 ~h_right~
past   : (c_in=A)  (l_in)  (r_in)
"""

FAILED_SWEEP = loops.LoopSweepReport(243, [("AAA", "B", "C")])

TEXT_CASES = [
    pytest.param(
        ["table"], None,
        "inputs  <AA>    <BC>    <CB>\n"
        "A_A_A   no      yes     yes\n"
        "A_A_B   no      yes     yes\n"
        "B_A_B   yes     yes     yes\n"
        "B_A_C   yes     yes     yes\n",
        0, id="table",
    ),
    pytest.param(
        ["hidden", "--left", "B", "--center", "A", "--right", "A"], None, "B_A_A: <BC> <CB>\n", 0, id="hidden",
    ),
    pytest.param(["classes"], None, "A_A_A\nA_A_B\nB_A_B\nB_A_C\n", 0, id="classes"),
    pytest.param(
        ["canon", "--left", "C", "--center", "B", "--right", "C"], None,
        "C_B_C -> B_A_B  (permutation CAB, reflected no)\n", 0, id="canon",
    ),
    pytest.param(["retro"], None, RETRO_TEXT, 0, id="retro"),
    pytest.param(["nonlocal"], None, NONLOCAL_TEXT, 0, id="nonlocal"),
    pytest.param(
        ["consistency", "--max-cells", "1"], None, "family=chain checked=27 counterexample=none\n", 0, id="consistency",
    ),
    pytest.param(
        ["loop", "--left", "A", "--center", "A", "--channel", "ACB"], None,
        "<BC>  left_out=C right_in=B right_out=A\n<CB>  left_out=B right_in=C right_out=A\n", 0, id="loop",
    ),
    pytest.param(
        ["loop", "--left", "A", "--center", "A", "--channel", "ACB"], (loops, "solve_loop", lambda *args: []),
        "no solutions\n", 0, id="loop-no-solutions",
    ),
    pytest.param(["loop-sweep"], None, "cases=243 failures=0\n", 0, id="loop-sweep"),
    pytest.param(
        ["loop-sweep"], (loops, "loop_universality", lambda: FAILED_SWEEP),
        "cases=243 failures=1\n  FAIL channel=AAA left=B center=C\n", 1, id="loop-sweep-fail",
    ),
    pytest.param(
        ["loop-exclusions", "--left", "B", "--center", "A", "--channel", "AAA"], None,
        "excluded: <AA>\n", 0, id="loop-exclusions",
    ),
    pytest.param(
        ["loop-exclusions", "--left", "B", "--center", "A", "--channel", "ABC"], None,
        "excluded: (none)\n", 0, id="loop-exclusions-none",
    ),
    pytest.param(
        ["prob", "--left", "B", "--center", "A", "--right", "B"], None,
        "p=1/3  c_in=A h_left=A h_right=A l_in=B l_out=C r_in=B r_out=C\n"
        "p=1/3  c_in=A h_left=B h_right=C l_in=B l_out=B r_in=B r_out=A\n"
        "p=1/3  c_in=A h_left=C h_right=B l_in=B l_out=A r_in=B r_out=B\n",
        0, id="prob",
    ),
    pytest.param(
        ["prob", "--left", "B", "--center", "A", "--right", "A", "--marginal", "l_out"], None,
        "l_out: A=1/2  B=1/2  C=0\n", 0, id="prob-marginal",
    ),
    pytest.param(
        ["signal", "--target", "l_out", "--remote", "r_in", "--left", "B", "--center", "A"], None,
        "score = 1/3\n", 0, id="signal",
    ),
    pytest.param(["epistemic", "--center", "A"], None, "<AA> = 4/9\n<BC> = 1\n<CB> = 1\n", 0, id="epistemic"),
    pytest.param(
        ["epistemic", "--center", "A", "--r-in", "A"], None, "<AA> = 0\n<BC> = 1\n<CB> = 1\n", 0, id="epistemic-known",
    ),
    pytest.param(
        ["solve", "--structure", "CELL", "--assign", "l_in=B", "--assign", "c_in=A", "--assign", "r_in=A"], None,
        "solutions: 2 (explored 8 candidates)\n"
        "  c_in=A h_left=B h_right=C l_in=B l_out=B r_in=A r_out=B\n"
        "  c_in=A h_left=C h_right=B l_in=B l_out=A r_in=A r_out=C\n",
        0, id="solve",
    ),
    pytest.param(["solve", "--structure", "CELL", "--count-only"], None, "count = 66\n", 0, id="solve-count-only"),
    pytest.param(["render", "--builder", "h-cell", "--assign", "c_in=A"], None, RENDER_TEXT, 0, id="render"),
]


@pytest.mark.parametrize("argv, patch, expected, exit_code", TEXT_CASES)
def test_text_output_of_every_command(monkeypatch, capsys, cell_file, argv, patch, expected, exit_code):
    if patch:
        monkeypatch.setattr(*patch)
    assert run([cell_file if arg == "CELL" else arg for arg in argv]).exit_code == exit_code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected, "")


# --- error paths ---


def test_unknown_command_is_usage_error():
    assert run(["conjure"]).exit_code == 2


def test_bad_flavor_is_usage_error():
    assert run(["hidden", "--left", "X", "--center", "A", "--right", "A"]).exit_code == 2


def test_bad_channel_is_usage_error():
    assert run(["loop", "--left", "A", "--center", "A", "--channel", "AXB"]).exit_code == 2


def test_bad_assign_is_usage_error(cell_file):
    assert run(["solve", "--structure", cell_file, "--assign", "nonsense"]).exit_code == 2
    assert run(["solve", "--structure", cell_file, "--assign", "c_in=X"]).exit_code == 2


def test_missing_file_is_usage_error(tmp_path):
    assert run(["solve", "--structure", str(tmp_path / "nope.json")]).exit_code == 2


def test_non_string_port_is_usage_error(tmp_path, capsys):
    doc = json.loads(serialize_scenario(build_h_cell()))
    doc["edges"]["c_in"]["to"]["port"] = ["in1"]
    path = tmp_path / "list_port.json"
    path.write_text(json.dumps(doc))
    assert run(["solve", "--structure", str(path)]).exit_code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["render", "consistency", "solve"])
def test_a_structure_file_that_is_not_utf8_is_named(command, tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{}")
    assert run([command, "--structure", str(path)]).exit_code == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: not UTF-8 text: invalid start byte at byte 0: {str(path)!r}\n")


def test_a_byte_that_is_not_utf8_is_named_by_its_offset_in_the_file(tmp_path, capsys):
    path = tmp_path / "late.json"
    path.write_bytes(b"{\n" + b" " * 100_000 + b"\xff}")
    assert run(["solve", "--structure", str(path)]).exit_code == 2
    assert capsys.readouterr().err == f"error: not UTF-8 text: invalid start byte at byte 100002: {str(path)!r}\n"


@pytest.mark.parametrize("newline", [b"\r\n", b"\r", b"\n"], ids=["crlf", "cr", "lf"])
def test_json_errors_count_lines_across_every_newline(newline, tmp_path, capsys):
    path = tmp_path / "lines.json"
    path.write_bytes(b"{" + newline * 2 + b"  x}")
    assert run(["solve", "--structure", str(path)]).exit_code == 2
    expected = "error: invalid JSON at line 3, column 3: Expecting property name enclosed in double quotes"
    assert capsys.readouterr().err == f"{expected}: {str(path)!r}\n"


def test_a_structure_file_over_the_size_limit_is_a_parse_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "_MAX_STRUCTURE_BYTES", 10)
    path = tmp_path / "big.json"
    path.write_bytes(b'{"x": 123}')  # 10 bytes: read in full
    assert run(["solve", "--structure", str(path)]).exit_code == 2
    assert capsys.readouterr().err == f"error: missing required field 'nodes': {str(path)!r}\n"
    path.write_bytes(b'{"x": 1234}')
    assert run(["solve", "--structure", str(path)]).exit_code == 2
    assert capsys.readouterr().err == f"error: more than 10 bytes, the most a structure file may hold: {str(path)!r}\n"


def test_a_structure_file_with_no_end_is_a_parse_error_within_bounded_memory():
    resource = pytest.importorskip("resource")
    if not os.path.exists("/dev/zero"):
        pytest.skip("no /dev/zero")
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "helsinki.cli", "solve", "--structure", "/dev/zero"],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, hard)),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    limit = cli._MAX_STRUCTURE_BYTES
    assert proc.stderr == f"error: more than {limit} bytes, the most a structure file may hold: '/dev/zero'\n"


def test_a_fifo_with_no_writer_reads_as_empty_and_is_a_parse_error(tmp_path):
    if not hasattr(os, "mkfifo"):
        pytest.skip("no os.mkfifo")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "helsinki.cli", "solve", "--structure", str(fifo)],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0].endswith(f": {str(fifo)!r}")


def test_malformed_json_is_usage_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert run(["solve", "--structure", str(path)]).exit_code == 2


def test_invalid_structure_is_domain_error(tmp_path):
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps({
        "nodes": {"p": "production"},
        "edges": {"in": {"from": {"terminal": "in", "side": "past"}, "to": {"node": "p", "port": "in1"}}},
    }))
    result = run(["solve", "--structure", str(path)])
    assert result.exit_code == 1


def test_render_chain_zero_is_usage_error():
    assert run(["render", "--builder", "chain:0"]).exit_code == 2
    assert run(["render", "--builder", "pyramid"]).exit_code == 2


def test_a_chain_builder_needs_an_integer(capsys):
    assert run(["render", "--builder", "chain:x"]).exit_code == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: --builder chain:K needs an integer, got 'chain:x'\n")


@pytest.mark.parametrize("name", ["chain:2_0", "chain: 2", "chain:+2", "chain:\u0663", "chain:", "chain:-"])
def test_a_chain_builder_takes_ascii_digits_only(name, capsys):
    assert run(["render", "--builder", name]).exit_code == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: --builder chain:K needs an integer, got {name!r}\n")


@pytest.mark.parametrize("name, cells", [("chain:-1", -1), ("chain:-0", 0)])
def test_a_signed_chain_length_reaches_the_builder(name, cells, capsys):
    assert run(["render", "--builder", name]).exit_code == 2
    assert capsys.readouterr().err == f"error: chain needs at least 1 cell, got {cells}\n"


@pytest.mark.parametrize("command", ["render", "consistency", "solve"])
def test_an_empty_structure_path_is_a_missing_file(command, capsys):
    assert run([command, "--structure", ""]).exit_code == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: [Errno 2] No such file or directory: ''\n")


@pytest.mark.parametrize(
    "text", ["[" * 200_000, '{"nodes": {}, "edges": {}, "roles": ' + "[" * 100_000 + "]" * 100_000 + "}"],
    ids=["brackets", "roles"],
)
def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert run(["solve", "--structure", str(path)]).exit_code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "nested too deeply" in captured.err


def test_an_integer_literal_past_the_digit_limit_is_a_parse_error_naming_the_file(tmp_path, capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not 0 < limit < 5000:
        pytest.skip("no integer digit limit below 5 000")
    path = tmp_path / "long.json"
    path.write_text('{"nodes": {"p": ' + "1" * 5000 + '}, "edges": {}}')
    assert run(["solve", "--structure", str(path)]).exit_code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: invalid JSON: ") and captured.err.endswith(f": {str(path)!r}\n")


def child(argv, stdout, stderr=subprocess.PIPE, closed=None):
    """A `helsinki` child writing to `stdout` and `stderr`, with descriptor `closed` (if any) shut before it starts,
    buffered as by a default interpreter whatever this process inherits, so an output that fits the stdout buffer
    is written at `run`'s final flush."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, "-m", "helsinki.cli", *argv], stdout=stdout, stderr=stderr, env=env, timeout=60,
        preexec_fn=None if closed is None else lambda: os.close(closed),
    )


def into_a_closed_pipe(argv):
    """A `helsinki` child whose stdout is a pipe with its read end already closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return child(argv, write_end)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("argv", [["nonlocal"], ["--output", "json", "table"]])
def test_a_closed_stdout_ends_without_a_traceback(argv):
    # the output fits the stdout buffer, so the pipe breaks at `run`'s final flush
    proc = into_a_closed_pipe(argv)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_a_closed_stdout_ends_as_a_reader_that_went_away():
    proc = child(["table"], subprocess.DEVNULL, closed=1)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_help_into_a_closed_stdout_ends_as_a_result_does():
    proc = child(["--help"], subprocess.DEVNULL, closed=1)
    assert proc.returncode == 1
    assert proc.stderr == b""


# a missing file and a usage error: each exits 2 with its line on stderr, and with stdout left empty
STDERR_CASES = pytest.mark.parametrize(
    "argv", [["solve", "--structure", "MISSING"], ["hidden", "--left", "D", "--center", "A", "--right", "A"]],
    ids=["error", "usage"],
)


def missing_file(argv, tmp_path):
    return [str(tmp_path / "missing.json") if word == "MISSING" else word for word in argv]


@STDERR_CASES
def test_a_closed_stderr_keeps_the_exit_code(argv, tmp_path):
    proc = child(missing_file(argv, tmp_path), subprocess.PIPE, subprocess.DEVNULL, closed=2)
    assert proc.returncode == 2
    assert proc.stdout == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@STDERR_CASES
def test_a_full_disk_on_stderr_keeps_the_exit_code(argv, tmp_path):
    with open("/dev/full", "wb") as full:
        proc = child(missing_file(argv, tmp_path), subprocess.PIPE, full)
    assert proc.returncode == 2
    assert proc.stdout == b""


@STDERR_CASES
def test_no_stderr_loses_the_error_line_not_the_exit_code(argv, monkeypatch, capsys, tmp_path):
    # `print(file=None)` would write to stdout, and so would argparse's usage line
    monkeypatch.setattr(sys, "stderr", None)
    assert run(missing_file(argv, tmp_path)).exit_code == 2
    assert capsys.readouterr().out == ""


@STDERR_CASES
def test_a_failing_stderr_write_loses_the_error_line_not_the_exit_code(argv, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(sys, "stderr", RaisingWriter(OSError(28, "No space left on device")))
    assert run(missing_file(argv, tmp_path)).exit_code == 2
    assert capsys.readouterr().out == ""


def test_help_with_no_stdout_has_no_reader(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", None)
    assert run(["--help"]) == (1, None)
    assert capsys.readouterr().err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv",
    [["table"], ["--output", "json", "retro"], ["--help"], ["solve", "--structure", "CHAIN2"]],
    ids=["at-the-flush", "json-at-the-flush", "help-at-the-flush", "while-written"],
)
def test_a_full_disk_ends_in_one_internal_error_line(argv, tmp_path):
    # the table, the retro JSON (7 KB) and the help fit the stdout buffer, so the write fails at `run`'s final
    # flush; chain:2's solutions (180 KB) do not, so it fails while `run` writes
    path = tmp_path / "chain2.json"
    path.write_text(serialize_scenario(build_chain(2)))
    with open("/dev/full", "wb") as full:
        proc = child([str(path) if word == "CHAIN2" else word for word in argv], full)
    assert proc.returncode == 1
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: internal: OSError"), proc.stderr


def test_a_pipe_closed_while_the_result_is_written_ends_without_a_traceback(cell_file, capsys):
    # the cell's solutions as JSON outgrow the stdout buffer, so the pipe breaks while `run` writes
    argv = ["--output", "json", "solve", "--structure", cell_file]
    assert run(argv).exit_code == 0 and len(capsys.readouterr().out) > io.DEFAULT_BUFFER_SIZE
    proc = into_a_closed_pipe(argv)
    assert proc.returncode == 1
    assert proc.stderr == b""


class RaisingWriter:
    """A stdout whose every write raises `exc`."""

    def __init__(self, exc):
        self.exc = exc

    def write(self, text):
        raise self.exc

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [["table"], ["--output", "json", "table"]], ids=["text", "json"])
def test_an_error_while_writing_the_result_is_a_one_line_internal_error(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", RaisingWriter(MemoryError("no room for the result")))
    assert run(argv) == (1, None)
    assert capsys.readouterr().err == "error: internal: MemoryError: no room for the result\n"


def test_help_that_cannot_be_written_is_a_one_line_internal_error(monkeypatch, capsys):
    # as on an unbuffered stdout: the help's own write fails, before `run`'s final flush
    monkeypatch.setattr(sys, "stdout", RaisingWriter(OSError(28, "No space left on device")))
    assert run(["--help"]) == (1, None)
    assert capsys.readouterr().err == "error: internal: OSError: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("argv", [["table"], ["--output", "json", "table"]], ids=["text", "json"])
def test_a_broken_pipe_while_writing_the_result_reaches_the_caller(argv, monkeypatch, capsys):
    # `main` ends the call; an exit-2 `error:` line would blame the input for a reader that went away
    monkeypatch.setattr(sys, "stdout", RaisingWriter(BrokenPipeError(32, "Broken pipe")))
    with pytest.raises(BrokenPipeError):
        run(argv)
    assert capsys.readouterr().err == ""


def test_unexpected_exception_is_a_one_line_internal_error(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "table", (broken, *cli._COMMANDS["table"][1:]))
    assert run(["table"]).exit_code == 1
    captured = capsys.readouterr()
    assert captured.err == "error: internal: RuntimeError: boom\n"
    assert captured.out == ""


def test_help_exits_zero():
    assert run(["--help"]).exit_code == 0
