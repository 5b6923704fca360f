import pytest

from helsinki.model import FLAVORS
from helsinki.structure import build_chain


@pytest.fixture(scope="session")
def chain_400_witness():
    """chain:400 and pins on its inputs and hidden edges under which every
    node is inhomogeneous; the pins fix exactly one completion."""
    pins, center = {"c_in": "A"}, "A"
    for i in range(1, 401):
        left, right = (f for f in FLAVORS if f != center)
        pins.update({f"h_left.{i}": left, f"h_right.{i}": right, f"l_in.{i}": center, f"r_in.{i}": center})
        center = left  # the right annihilation's output, third to (right, center)
    return build_chain(400), pins
