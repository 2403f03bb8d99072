"""An odd entry in the middle W1 block of a 129-row net against the reference.

``ShallowNet`` reads W1 ``network._BLOCK`` (64) rows at a time.  A block with
an entry that is not a plain string literal is read entry by entry, and the
blocks around it stay blocks.  Rows 64 to 127 form the middle block: an odd
entry there must give `test_row_parser`'s rows, W2 and b2, or its exception
type and message, and only that block's rows go through ``row_parts``.
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
    row_parts = network.row_parts
    monkeypatch.setattr(network, "row_parts", lambda row: calls.append(row) or row_parts(row))
    assert fields(w1, b1, w2, b2) == reference_net(w1, b1, w2, b2)
    assert calls == w1[64:128]


def test_generator_row_in_the_middle_block():
    w1, b1, w2, b2 = weights(D1)
    expected = reference_net(w1, b1, w2, b2)
    w1[MIDDLE] = (e for e in w1[MIDDLE])
    assert fields(w1, b1, w2, b2) == expected


@pytest.mark.parametrize("bad", ["1/0", "1,2"])
def test_bad_literal_in_the_middle_block(bad):
    w1, b1, w2, b2 = weights(D1)
    w1[MIDDLE][2] = bad
    got = outcome(lambda: fields(w1, b1, w2, b2))
    assert got == outcome(lambda: reference_net(w1, b1, w2, b2))
    assert isinstance(got[0], type) and issubclass(got[0], ValueError)
