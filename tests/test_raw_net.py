"""Integer-row raw networks against plain Fraction reference loops.

The literal parser is checked against ``Fraction(str)`` with the exponent and
zero-denominator rules of ``rat``; ``effective_tuple``, ``canonicalize`` and
``evaluate_net`` against the per-entry Fraction loops they replace, computed
from the weights as generated rather than from the net's integer rows.  The
CLI is fuzzed with net-shaped JSON whose weights hold arbitrary JSON values.
"""

import contextlib
import io
import json
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relugeo.canonical import CanonicalForm, canonicalize
from relugeo.cli import run
from relugeo.errors import DegenerateNeuron, DimensionMismatch
from relugeo.exact import is_zero, primitive_direction, rat, rat_parts
from relugeo.network import (
    Breakline,
    EffectiveTuple,
    Neuron,
    ShallowNet,
    effective_tuple,
    evaluate_net,
)

F = Fraction


# -- reference loops ------------------------------------------------------


def reference_rat(value: str) -> Fraction:
    """String literals as ``rat`` parsed them before integer rows."""
    exponent = re.search(r"[eE]([-+]?\d[\d_]*)", value)
    if exponent and abs(int(exponent.group(1))) > 1000:
        raise ValueError(f"exponent of {value!r} exceeds 1000")
    try:
        return Fraction(value.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def reference_effective_tuple(w1, b1, w2, b2):
    neurons = []
    bias = F(b2)
    for j, (row, b, out) in enumerate(zip(w1, b1, w2)):
        if out == 0 or is_zero(row):
            raise DegenerateNeuron(j + 1)
        d, s = primitive_direction(row)
        neurons.append(Neuron(Breakline(d, -b / s), abs(s) * out, 1 if s > 0 else -1))
    return EffectiveTuple(tuple(neurons), bias)


def reference_canonicalize(t, d0):
    effective = {}
    affine = [F(0)] * d0
    bias = t.out_bias
    for nr in t.neurons:
        effective[nr.breakline] = effective.get(nr.breakline, F(0)) + nr.kink
        if nr.orientation == -1:
            for i, e in enumerate(nr.breakline.direction):
                affine[i] -= nr.kink * e
            bias += nr.kink * nr.breakline.offset
    terms = tuple(
        (bl, k)
        for bl, k in sorted(effective.items(), key=lambda it: (it[0].direction, it[0].offset))
        if k != 0
    )
    return CanonicalForm(terms, tuple(affine), bias, d0)


def reference_evaluate_net(w1, b1, w2, b2, x):
    total = F(b2)
    for row, b, out in zip(w1, b1, w2):
        pre = sum(F(a) * c for a, c in zip(row, x)) + b
        if pre > 0:
            total += out * pre
    return total


# -- literals -------------------------------------------------------------

digits = st.text("0123456789", min_size=1, max_size=6)
# underscores and non-ASCII digits are for Fraction to accept or reject
odd_digits = st.one_of(
    digits,
    st.builds(lambda a, b: f"{a}_{b}", digits, digits),
    st.text("0123456789٣１३", min_size=1, max_size=4),
)
spaces = st.sampled_from(["", " ", "\t", "\n ", " ", " "])
slash_spaces = st.sampled_from(["", " ", "  "])
signs = st.sampled_from(["", "-", "+", "--", "+-"])
exponents = st.one_of(st.integers(-40, 40), st.sampled_from([-1001, 1000, 1001, 10**8]))
bodies = st.one_of(
    odd_digits,
    st.builds(lambda p, q: f"{p}/{q}", odd_digits, odd_digits),
    st.builds(lambda p, q: f"{p}/{q}", digits, st.sampled_from(["0", "00", "0_0"])),
    st.builds(lambda p, a, b, q: f"{p}{a}/{b}{q}", digits, slash_spaces, slash_spaces, digits),
    st.builds(lambda p, q: f"{p}.{q}", digits, digits),
    st.builds(lambda p: f".{p}", digits),
    st.builds(lambda p, e, x: f"{p}{e}{x}", digits, st.sampled_from("eE"), exponents),
    st.builds(lambda p, q: f"{p}/-{q}", digits, digits),
    st.text(max_size=6),
)
literals = st.builds(lambda a, s, b, z: f"{a}{s}{b}{z}", spaces, signs, bodies, spaces)


def outcome(parse, value):
    try:
        return parse(value)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


class TestLiteralParser:
    @settings(max_examples=400, deadline=None)
    @given(literals)
    def test_agrees_with_fraction(self, literal):
        expected = outcome(reference_rat, literal)
        if isinstance(expected, Fraction):
            expected = (expected.numerator, expected.denominator)
        assert outcome(rat_parts, literal) == expected
        assert outcome(rat, literal) == outcome(reference_rat, literal)

    @pytest.mark.parametrize(
        "literal, parts",
        [("6/4", (3, 2)), (" -6/4 ", (-3, 2)), ("+0/7", (0, 1)), ("12", (12, 1))],
    )
    def test_lowest_terms(self, literal, parts):
        assert rat_parts(literal) == parts

    def test_non_strings(self):
        assert rat_parts(F(-4, 6)) == (-2, 3)
        assert rat_parts(7) == (7, 1)
        with pytest.raises(TypeError, match="^cannot interpret True as a rational$"):
            rat_parts(True)
        for bad in (False, 1.5, None, [1], {"p": 1}):
            with pytest.raises(TypeError):
                rat_parts(bad)

    @pytest.mark.parametrize(
        "literal",
        ["1,2", "007/010", "-0", "+12/8", "1/0", "3/-4", "٣", "１２/４", f"-{'9' * 5000}/7"],
        ids=lambda literal: repr(literal) if len(literal) < 10 else "5000-digit-numerator",
    )
    def test_edge_literals(self, literal):
        expected = outcome(reference_rat, literal)
        if isinstance(expected, Fraction):
            expected = (expected.numerator, expected.denominator)
        assert outcome(rat_parts, literal) == expected
        assert outcome(rat, literal) == outcome(reference_rat, literal)

    def test_more_digits_than_int_allows(self):
        literal = "1" * 5000
        assert outcome(rat_parts, literal)[0] is ValueError
        assert outcome(rat_parts, literal) == outcome(reference_rat, literal)


# -- raw networks ---------------------------------------------------------

small = st.builds(F, st.integers(-9, 9), st.integers(1, 6))
positive = st.builds(F, st.integers(1, 9), st.integers(1, 6))
nonzero = small.filter(bool)


@st.composite
def raw_nets(draw, allow_degenerate=True):
    """Weights (W1, b1, W2, b2) as Fractions, with repeated breaklines.

    Neurons are drawn on a few shared hyperplanes, scaled by a nonzero factor
    whose sign is the orientation, so splits, flips and exact cancellations on
    one breakline occur; degenerate neurons (zero row or zero output weight)
    are mixed in when allowed.
    """
    d0 = draw(st.integers(1, 4))
    planes = draw(
        st.lists(
            st.tuples(st.lists(small, min_size=d0, max_size=d0).filter(any), small),
            min_size=1,
            max_size=3,
        )
    )
    kinds = ["plain", "cancel"] + (["zero-row", "zero-out"] if allow_degenerate else [])
    w1, b1, w2 = [], [], []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(kinds))
        normal, offset = draw(st.sampled_from(planes))
        scale = draw(nonzero)
        kink = draw(nonzero)
        if kind == "zero-row":
            w1.append(tuple(F(0) for _ in range(d0)))
            b1.append(draw(small))
            w2.append(kink)
            continue
        w1.append(tuple(scale * a for a in normal))
        b1.append(scale * offset)
        w2.append(F(0) if kind == "zero-out" else kink)
        if kind == "cancel":
            # the same neuron under another positive scale with the opposite kink
            other = draw(positive)
            w1.append(tuple(other * scale * a for a in normal))
            b1.append(other * scale * offset)
            w2.append(-kink / other)
    return d0, (tuple(w1), tuple(b1), tuple(w2), draw(small))


def as_literals(weights):
    w1, b1, w2, b2 = weights
    text = lambda f: f"{f.numerator}/{f.denominator}"
    return [[text(e) for e in row] for row in w1], [text(e) for e in b1], [text(e) for e in w2], text(b2)


def points(d0):
    return st.lists(small, min_size=d0, max_size=d0)


class TestRawNetDifferential:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_reference_loops(self, data):
        d0, weights = data.draw(raw_nets())
        net = ShallowNet(*weights)
        assert net == ShallowNet(*as_literals(weights))
        assert (net.w1, net.b1, net.w2, net.b2) == weights
        assert (net.d0, net.d1) == (d0, len(weights[0]))
        try:
            expected = reference_effective_tuple(*weights)
        except DegenerateNeuron as exc:
            with pytest.raises(DegenerateNeuron) as got:
                effective_tuple(net)
            assert got.value.args == exc.args
        else:
            t = effective_tuple(net)
            assert t == expected
            assert canonicalize(t, d0) == reference_canonicalize(expected, d0)
        for _ in range(3):
            x = data.draw(points(d0))
            value = reference_evaluate_net(*weights, x)
            assert evaluate_net(net, x) == value
            assert evaluate_net(net, [f"{c.numerator}/{c.denominator}" for c in x]) == value

    @settings(max_examples=100, deadline=None)
    @given(raw_nets(allow_degenerate=False), st.data())
    def test_form_evaluator_matches_net(self, case, data):
        d0, weights = case
        cf = canonicalize(effective_tuple(ShallowNet(*weights)), d0)
        for _ in range(3):
            x = data.draw(points(d0))
            assert cf.evaluator(x) == reference_evaluate_net(*weights, x)

    def test_equal_nets_hash_equal(self):
        a = ShallowNet([["2", "4/3"]], ["1/2"], ["1"], "0")
        b = ShallowNet([[F(2), F(4, 3)]], [F(1, 2)], [1], 0)
        assert a == b and hash(a) == hash(b)
        assert a.rows == (((12, 8), 3, 6),)
        assert a != ShallowNet([["2", "4/3"]], ["1/3"], ["1"], "0")

    def test_shape_errors_keep_their_meaning(self):
        with pytest.raises(DimensionMismatch, match="b1/W2 length"):
            ShallowNet([["1"]], [], ["1"], "0")
        with pytest.raises(DimensionMismatch, match="at least one hidden neuron"):
            ShallowNet([], [], [], "0")
        with pytest.raises(DimensionMismatch, match="unequal length"):
            ShallowNet([["1"], ["1", "2"]], ["0", "0"], ["1", "1"], "0")
        with pytest.raises(DimensionMismatch, match="^a net needs d0 >= 1, not 0$"):
            ShallowNet([[]], ["0"], ["1"], "0")
        with pytest.raises(DimensionMismatch, match="point has length 2, net expects 1"):
            evaluate_net(ShallowNet([["0"]], ["1"], ["1"], "0"), (1, 2))

    def test_all_degenerate_net_evaluates_to_folded_bias(self):
        net = ShallowNet([["0", "0"], ["0", "0"]], ["3", "-1"], ["1/2", "5"], "1")
        assert evaluate_net(net, ("7", "-2")) == F(5, 2)


# -- CLI fuzz at the raw-net boundary ------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    literals,
    st.text(max_size=5),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
weight_literals = st.one_of(small.map(lambda f: f"{f.numerator}/{f.denominator}"), literals)
# mostly matrix-shaped, sometimes ragged, sometimes anything at all
matrices = st.one_of(
    st.lists(st.lists(weight_literals, min_size=1, max_size=3), min_size=1, max_size=3),
    json_values,
)
vectors = st.one_of(st.lists(weight_literals, min_size=1, max_size=3), json_values)
nets = st.fixed_dictionaries(
    {"W1": matrices, "b1": vectors, "W2": vectors, "b2": st.one_of(weight_literals, json_values)}
)
RELU_NET = {"W1": [["1"]], "b1": ["0"], "W2": ["1"], "b2": "0"}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    net=nets,
    command=st.sampled_from(["canon", "equiv", "eval"]),
    x=st.sampled_from(["1/2", "-1,2", "0,1/3,-2", "1e400"]),
)
def test_cli_on_arbitrary_net_weights(net, command, x):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.json"
        path.write_text(json.dumps(net))
        other = Path(tmp) / "relu.json"
        other.write_text(json.dumps(RELU_NET))
        argv = {
            "canon": ["canon", str(path)],
            "equiv": ["equiv", str(path), str(other)],
            "eval": ["eval", str(path), f"--x={x}"],
        }[command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 2) == err.getvalue().startswith("error: ")
