"""Classical feedback from the left output into the right input.

A channel is an external total function on flavors: whatever flavor comes
out on the left wing fixes, through the channel, what goes in on the right
wing. It is not part of the structure itself; solutions are simply the
cell's admissible assignments that happen to satisfy the feedback
condition, not the result of any iterative dynamics. They are read from
`analysis.cell_solutions`, so the cell is solved once per input triple per
process however many channels are checked.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .analysis import InputTriple, cell_solutions, hidden_state_set
from .model import FLAVORS, HiddenState

Channel = dict[str, str]

#: all 27 total maps on flavors, ordered by their image string
ALL_CHANNELS: tuple[Channel, ...] = tuple(
    dict(zip(FLAVORS, images)) for images in itertools.product(FLAVORS, repeat=3)
)


def parse_channel(text: str) -> Channel:
    """Channel from the images of A, B, C in order; "ACB" maps B to C."""
    if len(text) != 3 or any(c not in FLAVORS for c in text):
        raise ValueError(f"channel must be 3 flavor characters, got {text!r}")
    return dict(zip(FLAVORS, text))


def channel_to_string(channel: Channel) -> str:
    return "".join(channel[f] for f in FLAVORS)


class LoopSolution(NamedTuple):
    """One admissible cell state compatible with the feedback channel."""

    hidden: HiddenState
    left_out: str
    right_in: str
    right_out: str


class LoopSweepReport(NamedTuple):
    """Solvability of every (channel, left input, center input) case."""

    total: int
    failures: list[tuple[str, str, str]]


def solve_loop(left_in: str, center_in: str, channel: Channel) -> list[LoopSolution]:
    """Cell solutions whose right input equals the channel image of their
    left output, ordered by hidden state.

    The feedback only filters the unconstrained solution set; channel
    values for left outputs that never occur are inert.
    """
    solutions = [
        LoopSolution((a["h_left"], a["h_right"]), a["l_out"], a["r_in"], a["r_out"])
        for right_in in FLAVORS
        for a in cell_solutions(InputTriple(left_in, center_in, right_in))
        if a["r_in"] == channel[a["l_out"]]
    ]
    return sorted(solutions)


def loop_exclusions(left_in: str, center_in: str, channel: Channel) -> set[HiddenState]:
    """Hidden states reachable with a free right input but killed by the
    feedback constraint."""
    baseline = set().union(*(hidden_state_set(InputTriple(left_in, center_in, r)) for r in FLAVORS))
    looped = {s.hidden for s in solve_loop(left_in, center_in, channel)}
    return baseline - looped


def loop_universality() -> LoopSweepReport:
    """Check all 27 channels times 9 input pairs for unsolvable cases.

    No feedback channel should ever shut the cell down; failures lists any
    case with zero solutions.
    """
    failures = [
        (channel_to_string(channel), left_in, center_in)
        for channel in ALL_CHANNELS for left_in in FLAVORS for center_in in FLAVORS
        if not solve_loop(left_in, center_in, channel)
    ]
    return LoopSweepReport(len(ALL_CHANNELS) * len(FLAVORS) ** 2, failures)
