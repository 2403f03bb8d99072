"""Weight rows parsed in one pass against the per-literal constructor.

``ShallowNet`` reads plain blocks of W1 rows, and b1 and W2, through
``exact.block_parts``, one pattern check per block, parts not reduced, and a
block with a literal that is not plain entry by entry through
``exact.rat_parts``; then one gcd per neuron and per W2 entry.  The reference
below is the per-literal constructor: one ``rat_parts`` call per literal
(reduced, with literals parsed by ``Fraction`` as ``reference_rat`` does, and
no booleans) and rows over the lcm of the reduced denominators, d0 >= 1.  Both
must agree on the integer rows, W2 and b2, or raise the same exception with the
same message.
"""

import contextlib
import io
import json
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relugeo.cli import run
from relugeo.errors import DimensionMismatch
from relugeo.network import ShallowNet, _parts
from test_raw_net import digits, literals, reference_rat

F = Fraction


def reference_parts(value):
    """``rat_parts`` one literal at a time, in lowest terms."""
    if isinstance(value, str):
        parsed = reference_rat(value)
        return parsed.numerator, parsed.denominator
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value), 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"cannot interpret {value!r} as a rational")


def reference_net(w1, b1, w2, b2):
    """(rows, w2, b2) built one literal at a time."""
    w1 = [[reference_parts(e) for e in row] for row in w1]
    b1 = [reference_parts(e) for e in b1]
    w2 = tuple(F(*reference_parts(e)) for e in w2)
    b2 = F(*reference_parts(b2))
    d1 = len(w1)
    if len(b1) != d1 or len(w2) != d1:
        raise DimensionMismatch("b1/W2 length must equal the number of hidden neurons")
    if d1 == 0:
        raise DimensionMismatch("need at least one hidden neuron")
    d0 = len(w1[0])
    if any(len(row) != d0 for row in w1):
        raise DimensionMismatch("W1 rows of unequal length")
    if d0 == 0:
        raise DimensionMismatch("a net needs d0 >= 1, not 0")
    rows = []
    for row, (bn, bd) in zip(w1, b1):
        den = lcm(bd, *(d for _, d in row))
        rows.append((tuple(n * (den // d) for n, d in row), bn * (den // bd), den))
    return tuple(rows), w2, b2


def one_row_parts(row):
    """``network._parts`` of the one row ``row``, as (num, den) pairs."""
    nums, dens, _ = _parts([row])
    return list(zip(nums, dens))


def outcome(build):
    try:
        return build()
    except Exception as exc:  # the exception type and message are the outcome
        return type(exc), str(exc)


# plain literals, often unreduced, with signs and leading zeros
plain = st.builds(
    lambda sign, p, q: f"{sign}{p}/{q}" if q else f"{sign}{p}",
    st.sampled_from(["", "-", "+"]),
    digits,
    st.one_of(st.just(""), st.integers(1, 60).map(str), digits.filter(lambda q: q.strip("0"))),
)
odd = st.one_of(
    st.sampled_from(["6/4", "-0/5", "+7/14", "1/0", "-3/00", "1,2", ",", "", "1" * 5000]),
    st.builds(lambda p: f"{p}/{'1' * 5000}", digits),
    literals,
    st.none(),
    st.booleans(),
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(F, st.integers(-9, 9), st.integers(1, 6)),
)
entries = st.one_of(plain, plain, odd)


@st.composite
def weights(draw):
    """(W1, b1, W2, b2) with rows mostly plain, sometimes mixed, ragged or empty."""
    d0 = draw(st.integers(0, 4))
    d1 = draw(st.integers(0, 3))

    def vector(size):
        kind = draw(st.sampled_from(["plain", "plain", "mixed"]))
        size = draw(st.sampled_from([size, size, size, size + 1, max(size - 1, 0)]))
        return draw(st.lists(plain if kind == "plain" else entries, min_size=size, max_size=size))

    return [vector(d0) for _ in range(d1)], vector(d1), vector(d1), draw(entries)


@settings(max_examples=500, deadline=None)
@given(weights())
def test_net_matches_per_literal_constructor(case):
    w1, b1, w2, b2 = case
    got = outcome(lambda: (lambda net: (net.rows, net.w2, net.b2))(ShallowNet(w1, b1, w2, b2)))
    assert got == outcome(lambda: reference_net(w1, b1, w2, b2))


@settings(max_examples=300, deadline=None)
@given(st.lists(entries, max_size=5))
def test_row_parts_are_rat_parts_up_to_reduction(row):
    expected = outcome(lambda: [F(*reference_parts(e)) for e in row])
    assert outcome(lambda: [F(*parts) for parts in one_row_parts(row)]) == expected


@pytest.mark.parametrize(
    "row, parts",
    [
        (["6/4", "-0/5", "+7/14", "3"], [(6, 4), (0, 5), (7, 14), (3, 1)]),
        (["1/0", "2"], "zero denominator in '1/0'"),
        (["1,2"], "Invalid literal for Fraction: '1,2'"),
        ([" 6/4", "2"], [(3, 2), (2, 1)]),
        # a row without a length is no block: its entries are read reduced
        ((e for e in ["1", "2/4"]), [(1, 1), (1, 2)]),
        ([], []),
    ],
    ids=["unreduced", "zero-denominator", "comma", "whitespace", "generator", "empty"],
)
def test_row_parts_cases(row, parts):
    expected = parts if isinstance(parts, list) else (ValueError, parts)
    assert outcome(lambda: one_row_parts(row)) == expected


def test_one_gcd_per_neuron():
    net = ShallowNet([["6/4", "-9/6"], ["0", "0/3"]], ["3/2", "4/8"], ["2/4", "-0/7"], "10/4")
    assert net.rows == (((3, -3), 3, 2), ((0, 0), 1, 2))
    assert (net.w2, net.b2) == ((F(1, 2), F(0)), F(5, 2))


# -- vectors and matrices must be JSON arrays ----------------------------

RELU_NET = {"W1": [["1", "0"]], "b1": ["0"], "W2": ["1"], "b2": "0"}


@pytest.mark.parametrize(
    "data, found",
    [
        ({"terms": [], "affine": "12", "bias": "0", "d0": 2}, "str"),
        ({**RELU_NET, "W1": "12"}, "str"),
        ({**RELU_NET, "W1": [{"1": 0, "2": 0}]}, "dict"),
        ({**RELU_NET, "W1": ["10"]}, "str"),
        ({**RELU_NET, "b1": "0"}, "str"),
        ({**RELU_NET, "W2": "3"}, "str"),
        ({**RELU_NET, "W2": {"3": 1}}, "dict"),
    ],
    ids=["affine-str", "W1-str", "W1-row-dict", "W1-row-str", "b1-str", "W2-str", "W2-dict"],
)
def test_non_arrays_exit_2(tmp_path, data, found):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["canon", str(path)])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == f"error: {path}: expected a JSON array, found {found}\n"


# -- booleans are not rationals, and a net needs d0 >= 1 ------------------

RELU_FORM = {"terms": [{"d": [1], "q": "0", "kink": "1"}], "affine": ["0"], "bias": "0", "d0": 1}
RELU_TUPLE = {"neurons": [{"d": [1], "q": "0", "kink": "1", "orient": 1}], "bias": "0"}
NOT_RATIONAL = "{path}: cannot interpret %r as a rational"


@pytest.mark.parametrize(
    "data, message",
    [
        ({"W1": [[True]], "b1": [False], "W2": [True], "b2": False}, NOT_RATIONAL % True),
        ({**RELU_NET, "b2": False}, NOT_RATIONAL % False),
        ({**RELU_FORM, "affine": [True]}, NOT_RATIONAL % True),
        ({**RELU_FORM, "terms": [{"d": [1], "q": False, "kink": "1"}]}, NOT_RATIONAL % False),
        ({**RELU_TUPLE, "bias": True}, NOT_RATIONAL % True),
        ({"W1": [[]], "b1": ["0"], "W2": ["1"], "b2": "0"}, "{path}: a net needs d0 >= 1, not 0"),
    ],
    ids=["net-booleans", "net-b2", "form-affine", "form-offset", "tuple-bias", "zero-width-net"],
)
def test_rejected_literals_and_shapes_exit_2(tmp_path, data, message):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["canon", str(path)])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == f"error: {message.format(path=path)}\n"
