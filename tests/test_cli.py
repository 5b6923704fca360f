import json

import pytest

from helsinki.cli import run
from helsinki.structure import build_h_cell, serialize_scenario


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


def test_signal_rejects_remote_collision():
    result = run(["signal", "--target", "l_out", "--remote", "l_in", "--left", "B", "--center", "A"])
    assert result.exit_code == 2


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


def test_render_structure_file(cell_file):
    result = run(["render", "--structure", cell_file, "--format", "ascii"])
    assert result.exit_code == 0


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


def test_help_exits_zero():
    assert run(["--help"]).exit_code == 0
