"""An odd entry in the middle W1 block of a 129-row net against the reference.

``ShallowNet`` reads W1 ``network._BLOCK`` (64) rows at a time.  A block with
an entry that is not a plain string literal is read entry by entry, and the
blocks around it stay blocks.  Rows 64 to 127 form the middle block: an odd
entry there must give `test_row_parser`'s rows, W2 and b2, or its exception
type and message, and only that block's entries go through ``rat_parts``, in
row order.  With two defects in different rows, the first in row order raises.
"""

from fractions import Fraction

import pytest

from relugeo import network
from relugeo.network import ShallowNet

from test_row_parser import outcome, reference_net
from test_weight_blocks import weights

D1, MIDDLE = 129, 100


def fields(w1, b1, w2, b2):
    net = ShallowNet(w1, b1, w2, b2)
    return net.rows, net.w2, net.b2


@pytest.mark.parametrize("odd", [" 1", "0.5", 7, Fraction(3, 4)], ids=repr)
def test_valid_literal_in_the_middle_block(odd, monkeypatch):
    w1, b1, w2, b2 = weights(D1)
    w1[MIDDLE][1] = odd
    calls = []
    rat_parts = network.rat_parts
    monkeypatch.setattr(network, "rat_parts", lambda e: calls.append(e) or rat_parts(e))
    assert fields(w1, b1, w2, b2) == reference_net(w1, b1, w2, b2)
    assert calls == [e for row in w1[64:128] for e in row]


def test_generator_row_in_the_middle_block():
    w1, b1, w2, b2 = weights(D1)
    expected = reference_net(w1, b1, w2, b2)
    w1[MIDDLE] = (e for e in w1[MIDDLE])
    assert fields(w1, b1, w2, b2) == expected


GENERATOR = object()


@pytest.mark.parametrize(
    "defects, error",
    [
        ({MIDDLE: "1/0"}, ValueError),
        ({MIDDLE: "1,2"}, ValueError),
        ({MIDDLE: "1/0", MIDDLE + 3: 5}, ValueError),
        ({MIDDLE: 5, MIDDLE + 3: "1/0"}, TypeError),
        ({MIDDLE: "1,2", MIDDLE + 3: GENERATOR}, ValueError),
    ],
    ids=["1/0", "1,2", "1/0-then-int-row", "int-row-then-1/0", "1,2-then-generator-row"],
)
def test_bad_literal_in_the_middle_block(defects, error):
    """A string defect is entry 2 of its row, any other replaces the row; a
    ``GENERATOR`` row is the plain row as a generator, read as a list by the
    reference."""
    w1, b1, w2, b2 = weights(D1)
    for j, defect in defects.items():
        if isinstance(defect, str):
            w1[j][2] = defect
        elif defect is not GENERATOR:
            w1[j] = defect
    expected = outcome(lambda: reference_net(w1, b1, w2, b2))
    for j, defect in defects.items():
        if defect is GENERATOR:
            w1[j] = (e for e in w1[j])
    got = outcome(lambda: fields(w1, b1, w2, b2))
    assert got == expected
    assert isinstance(got[0], type) and issubclass(got[0], error)
