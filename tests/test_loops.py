import itertools

import pytest

from helsinki.loops import (
    ALL_CHANNELS,
    LoopSolution,
    channel_to_string,
    loop_exclusions,
    loop_universality,
    parse_channel,
    solve_loop,
)
from helsinki.model import ALL_PERMUTATIONS, FLAVORS
from helsinki.solver import complete, is_admissible
from helsinki.structure import build_h_cell

AA, BC, CB = ("A", "A"), ("B", "C"), ("C", "B")
CELL = build_h_cell().structure


def test_parse_channel():
    assert parse_channel("ACB") == {"A": "A", "B": "C", "C": "B"}
    assert channel_to_string(parse_channel("BBA")) == "BBA"


@pytest.mark.parametrize("bad", ["AB", "ABCA", "AXB", ""])
def test_parse_channel_rejects(bad):
    with pytest.raises(ValueError):
        parse_channel(bad)


def test_all_channels():
    assert len(ALL_CHANNELS) == 27
    assert [channel_to_string(c) for c in ALL_CHANNELS[:3]] == ["AAA", "AAB", "AAC"]


def test_swap_channel_equal_inputs_two_solutions():
    solutions = solve_loop("A", "A", parse_channel("ACB"))
    assert solutions == [
        LoopSolution(BC, "C", "B", "A"),
        LoopSolution(CB, "B", "C", "A"),
    ]


def test_constant_channel_two_solutions():
    solutions = solve_loop("B", "A", parse_channel("AAA"))
    assert solutions == [
        LoopSolution(BC, "B", "A", "B"),
        LoopSolution(CB, "A", "A", "C"),
    ]


def test_distinct_left_and_center_still_solvable():
    assert solve_loop("A", "B", parse_channel("AAA"))


def test_constant_channel_excludes_homogeneous_hidden():
    assert loop_exclusions("B", "A", parse_channel("AAA")) == {AA}


def test_identity_channel_excludes_nothing():
    assert loop_exclusions("B", "A", parse_channel("ABC")) == set()


def test_equal_inputs_exclusions_never_mention_homogeneous():
    # the homogeneous hidden state is already gone without any channel
    for channel in ALL_CHANNELS:
        assert loop_exclusions("A", "A", channel) <= {BC, CB}


def test_universality_zero_failures():
    report = loop_universality()
    assert report.total == 243
    assert report.failures == []


def test_universality_deterministic():
    assert loop_universality() == loop_universality()


def test_solutions_induce_admissible_assignments():
    for channel in (parse_channel("ACB"), parse_channel("AAA"), parse_channel("CCC")):
        for left, center in itertools.product(FLAVORS, repeat=2):
            for s in solve_loop(left, center, channel):
                assignment = {
                    "c_in": center, "l_in": left,
                    "h_left": s.hidden[0], "h_right": s.hidden[1],
                    "l_out": s.left_out, "r_in": s.right_in, "r_out": s.right_out,
                }
                assert is_admissible(CELL, assignment)
                assert s.right_in == channel[s.left_out]


def test_loop_only_filters_the_free_solutions():
    free = complete(CELL, {"l_in": "B", "c_in": "A"})
    projected = {
        ((a["h_left"], a["h_right"]), a["l_out"], a["r_in"], a["r_out"]) for a in free.solutions
    }
    for channel in ALL_CHANNELS:
        for s in solve_loop("B", "A", channel):
            assert tuple(s) in projected


@pytest.mark.parametrize("channel", ALL_CHANNELS, ids=channel_to_string)
def test_solve_loop_permutation_equivariant(channel):
    # conjugation is defined for any flavor map, bijective or not
    for p in ALL_PERMUTATIONS:
        conjugated = {p[f]: p[channel[f]] for f in FLAVORS}
        for left, center in itertools.product(FLAVORS, repeat=2):
            direct = solve_loop(p[left], p[center], conjugated)
            mapped = sorted(
                LoopSolution((p[s.hidden[0]], p[s.hidden[1]]), p[s.left_out], p[s.right_in], p[s.right_out])
                for s in solve_loop(left, center, channel)
            )
            assert direct == mapped
