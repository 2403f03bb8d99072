"""W1 parsed in blocks of rows against the row-by-row constructor.

``ShallowNet`` joins up to ``network._BLOCK`` (64) W1 rows, then b1 and W2,
into one text each for ``exact.block_parts``; only a block with a literal
outside the plain grammar is read entry by entry, through ``exact.rat_parts``,
and the shapes are checked once every block is read.  At 63, 64, 65 and
129 rows, a bad literal in the first or the last block, or a short row in the
last one, must give the exception type and message of the reference in
`test_row_parser`, which reads one literal at a time; plain nets must give
its rows.
"""

from fractions import Fraction

import pytest

from relugeo.exact import block_parts
from relugeo.network import _BLOCK, ShallowNet

from test_row_parser import outcome, reference_net

SIZES = [63, 64, 65, 129]
BAD = ["1/0", " 1", "1,2", "1" * 5000, 7, "2/4/6", "1/-2", "", None]


def weights(d1, d0=3):
    """Plain literals, mixing "p", "-p/q" and unreduced "p/q"."""
    lit = lambda i: [str(i % 7 - 3), f"-{i % 5}/{i % 4 + 1}", f"{2 * i}/{2 * (i % 3) + 2}"][i % 3]
    w1 = [[lit(3 * j + i) for i in range(d0)] for j in range(d1)]
    return w1, [lit(j + 1) for j in range(d1)], [lit(j + 2) for j in range(d1)], "-5/10"


def both(w1, b1, w2, b2):
    """(parsed, reference): the net's fields or exception type and message, each."""
    net = lambda: (lambda n: (n.rows, n.w2, n.b2))(ShallowNet(w1, b1, w2, b2))
    return outcome(net), outcome(lambda: reference_net(w1, b1, w2, b2))


def test_block_size():
    assert _BLOCK == 64


@pytest.mark.parametrize("d1", SIZES)
def test_plain_nets(d1):
    got, expected = both(*weights(d1))
    assert got == expected and isinstance(got[0], tuple)


@pytest.mark.parametrize("d1", SIZES)
@pytest.mark.parametrize("row", ["first", "last"])
@pytest.mark.parametrize("bad", BAD, ids=repr)
def test_bad_literal_in_a_block(d1, row, bad):
    w1, b1, w2, b2 = weights(d1)
    w1[0 if row == "first" else -1][1] = bad
    got, expected = both(w1, b1, w2, b2)
    assert got == expected


@pytest.mark.parametrize("d1", SIZES)
@pytest.mark.parametrize("vector", ["b1", "W2"])
@pytest.mark.parametrize("bad", BAD, ids=repr)
def test_bad_literal_in_b1_or_w2(d1, vector, bad):
    w1, b1, w2, b2 = weights(d1)
    (b1 if vector == "b1" else w2)[-1] = bad
    got, expected = both(w1, b1, w2, b2)
    assert got == expected


@pytest.mark.parametrize("d1", SIZES)
def test_short_row_in_the_last_block(d1):
    w1, b1, w2, b2 = weights(d1)
    w1[-1] = w1[-1][:-1]
    got, expected = both(w1, b1, w2, b2)
    assert got == expected and got[1] == "W1 rows of unequal length"
    w1[0][0] = "1/0"  # a parse error comes before the shape error
    got, expected = both(w1, b1, w2, b2)
    assert got == expected and got[1] == "zero denominator in '1/0'"


@pytest.mark.parametrize("d1", SIZES)
def test_short_and_long_rows_in_one_block(d1):
    # d1 * d0 literals in all, so only the rows' own lengths show the shape error
    w1, b1, w2, b2 = weights(d1)
    w1[-2], w1[-1] = w1[-2][:-1], w1[-1] + ["1"]
    got, expected = both(w1, b1, w2, b2)
    assert got == expected and got[1] == "W1 rows of unequal length"


@pytest.mark.parametrize(
    "case",
    [
        ([], [], [], "0"),
        ([[], []], ["1", "2"], ["1", "1"], "0"),
        ([["1"]] * 65, ["0"] * 64, ["1"] * 65, "0"),
        ([["1"]] * 65, ["0"] * 65, ["1"] * 66, "0"),
        (tuple(("1/2", "3") for _ in range(65)), ("0",) * 65, ("1",) * 65, "2"),
        ([["1"]] * 3, ["0"] * 3, ["1"] * 3, "1/0"),
        ([1, 2], ["0", "0"], ["1", "1"], "0"),
    ],
    ids=["empty", "no-columns", "short-b1", "long-W2", "tuples", "bad-b2", "int-rows"],
)
def test_shapes_and_containers(case):
    got, expected = both(*case)
    assert got == expected


def test_generators_are_read_once():
    rows = lambda: (row for row in [["1", "2/3"], ["-1/2", "0"]])
    net = ShallowNet(rows(), (b for b in ["1", "2"]), (w for w in ["1/2", "3"]), "0")
    assert (net.rows, net.w2) == reference_net(list(rows()), ["1", "2"], ["1/2", "3"], "0")[:2]


@pytest.mark.parametrize(
    "text, count, parts",
    [
        ("1/2,-3,+06/004", 3, ([1, -3, 6], [2, 1, 4])),
        ("7", 1, ([7], [1])),
        ("1/2/3,4", 2, None),
        ("1,,2", 3, None),
        ("1/0", 1, None),
        ("1,2", 1, None),
        ("", 0, None),
    ],
)
def test_block_parts(text, count, parts):
    assert block_parts(text, count) == parts
    if parts:
        assert [Fraction(n, d) for n, d in zip(*parts)] == [Fraction(e) for e in text.split(",")]
