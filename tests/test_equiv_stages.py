"""``equivalence`` on integer stages against forms and Fraction reference loops.

``equivalence`` compares the integer stages (``canonical._stage``) of its
inputs and builds a `Breakline` only for a ``Different`` witness.  Pairs of
nets in d0 1-6 that are equal, equal up to an affine part, or different are
built from split neurons, flipped neurons with the affine part they move
carried by a cancelling pair on a fresh breakline, changed kinks and shifted
output biases, and padded with cancelling neurons so that d1 crosses the
64-row block boundary.  The verdict, ``a_diff``/``b_diff`` and witness must be
the same for the nets, for their canonical forms, for any mix of net, tuple
and form, and for a reference built from `test_raw_net`'s Fraction loops,
whose witness is the least breakline, by (direction, offset), whose kinks
differ.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relugeo.canonical import (
    CanonicalForm,
    Different,
    Equal,
    EqualUpToAffine,
    _as_form,
    equivalence,
)
from relugeo.errors import DegenerateNeuron, DimensionMismatch
from relugeo.network import ShallowNet, effective_tuple

from test_raw_net import reference_canonicalize, reference_effective_tuple

F = Fraction

# offsets with denominators up to 4, so (numerator, denominator) order is not offset order
small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero = small.filter(bool)
SCALES = [F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2), F(2), F(3)]
KINKS = [F(-3, 2), F(-1), F(-1, 3), F(1, 4), F(1), F(5, 2)]


def reference_equivalence(cf1, cf2):
    """The verdict on two reference forms, with Fraction terms and no stages."""
    if cf1.d0 != cf2.d0:
        raise DimensionMismatch("inputs live in different ambient dimensions")
    k1, k2 = dict(cf1.terms), dict(cf2.terms)
    differ = [bl for bl in k1.keys() | k2.keys() if k1.get(bl) != k2.get(bl)]
    if differ:
        return Different(min(differ, key=lambda bl: (bl.direction, bl.offset)))
    if cf1.affine == cf2.affine and cf1.bias == cf2.bias:
        return Equal()
    return EqualUpToAffine(tuple(a - b for a, b in zip(cf1.affine, cf2.affine)), cf1.bias - cf2.bias)


@st.composite
def net_pairs(draw):
    """(d0, weights1, weights2, intended verdict), weights as Fractions.

    A neuron is (plane, sign, kink): on the plane (n, c) it is
    kink * (sign * (n.x + c))_+, written with a drawn positive scale s as
    W1 = sign s n, b1 = sign s c, W2 = kink / s.  Planes share one or two
    normals, so several breaklines lie on one direction."""
    d0 = draw(st.integers(1, 6))
    normal = st.lists(st.integers(-3, 3), min_size=d0, max_size=d0).filter(any)
    normals = draw(st.lists(normal, min_size=1, max_size=2))
    planes = draw(st.lists(st.tuples(st.sampled_from(normals), small), min_size=1, max_size=4))
    base = [
        (draw(st.sampled_from(planes)), draw(st.sampled_from([1, -1])), draw(nonzero))
        for _ in range(draw(st.integers(1, 6)))
    ]
    verdict = draw(st.sampled_from(["equal", "affine", "different"]))
    first, second, shift = list(base), [], F(0)
    for plane, sign, k in base:
        move = draw(st.sampled_from(["keep", "split", "flip"]))
        if move == "split":  # two neurons of one breakline and orientation
            part = draw(nonzero)
            second += [(plane, sign, part), (plane, sign, k - part)]
        elif move == "flip":  # k (z)_+ = k (-z)_+ + k z, k z on a fresh plane
            n, c = plane
            fresh = (n, draw(small))
            second += [(plane, -sign, k), (fresh, 1, sign * k), (fresh, -1, -sign * k)]
            shift += sign * k * (c - fresh[1])
        else:
            second.append((plane, sign, k))
    if verdict == "affine":
        change = draw(st.sampled_from(["bias", "flip", "pair"]))
        if change == "bias":
            shift += draw(nonzero)
        elif change == "flip":
            plane, sign, k = second.pop(draw(st.integers(0, len(second) - 1)))
            second.append((plane, -sign, k))
        else:  # k (z)_+ - k (-z)_+ = k z
            fresh, k = (draw(st.sampled_from(normals)), draw(small)), draw(nonzero)
            second += [(fresh, 1, k), (fresh, -1, -k)]
    elif verdict == "different":
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(second) - 1))
            plane, sign, k = second[i]
            second[i] = (plane, sign, k + draw(nonzero))
            if draw(st.booleans()):
                second.append((draw(st.sampled_from(planes)), draw(st.sampled_from([1, -1])), draw(nonzero)))
    b2 = draw(small)
    rng = draw(st.randoms(use_true_random=False))  # for the many cheap choices below
    # cancelling neurons: d1 crosses 64 and 128
    for neurons in (first, second):
        for _ in range(draw(st.sampled_from([0, 0, 0, 31, 33, 64]))):
            plane, sign, k = rng.choice(planes), rng.choice([1, -1]), rng.choice(KINKS)
            neurons += [(plane, sign, k), (plane, sign, -k)]
        rng.shuffle(neurons)

    def weights(neurons, bias):
        rows = []
        for (n, c), sign, k in neurons:
            if not k:  # a split into k and 0: no neuron
                continue
            s = rng.choice(SCALES)
            rows.append((tuple(sign * s * e for e in n), sign * s * c, k / s))
        if not rows:
            rows.append(((F(1),) + (F(0),) * (d0 - 1), F(0), F(0)))  # degenerate, dropped below
        w1, b1, w2 = (tuple(col) for col in zip(*rows))
        return w1, b1, w2, bias

    return d0, weights(first, b2), weights(second, b2 + shift), verdict


def literal_net(weights):
    """The net of Fraction weights written as "p/q" literals, as in a net file."""
    w1, b1, w2, b2 = weights
    text = lambda f: f"{f.numerator}/{f.denominator}"
    return ShallowNet([[*map(text, row)] for row in w1], [*map(text, b1)], [*map(text, w2)], text(b2))


def outcome(f):
    try:
        return f()
    except (DegenerateNeuron, DimensionMismatch) as exc:
        return type(exc), exc.args


def degenerate_at(j):
    return DegenerateNeuron, DegenerateNeuron(j).args


@settings(max_examples=200, deadline=None)
@given(net_pairs())
def test_stages_agree_with_forms_and_reference(case):
    d0, weights1, weights2, _ = case
    try:
        t1, t2 = (reference_effective_tuple(*w) for w in (weights1, weights2))
    except DegenerateNeuron:
        return  # every kink of a split cancelled
    cf1, cf2 = (reference_canonicalize(t, d0) for t in (t1, t2))
    expected = reference_equivalence(cf1, cf2)
    net1, net2 = literal_net(weights1), literal_net(weights2)
    got = equivalence(net1, net2)
    assert type(got) is type(expected) and got == expected
    assert repr(got) == repr(expected)
    form1, form2 = _as_form(net1), _as_form(net2)
    assert (form1, form2) == (cf1, cf2)
    assert equivalence(form1, form2) == expected
    for x in (net1, t1, cf1):
        for y in (net2, t2, cf2):
            assert equivalence(x, y) == expected
    assert equivalence(net2, net1) == reference_equivalence(cf2, cf1)
    assert equivalence(net1, net1) == Equal() == equivalence(net1, cf1)


def test_intended_verdicts_occur():
    """The generator reaches every verdict and both sides of the block boundary."""
    seen = set()

    @settings(max_examples=80, deadline=None, database=None)
    @given(net_pairs())
    def collect(case):
        d0, weights1, weights2, verdict = case
        try:
            cfs = [reference_canonicalize(reference_effective_tuple(*w), d0) for w in (weights1, weights2)]
        except DegenerateNeuron:
            return
        seen.add((verdict, type(reference_equivalence(*cfs)).__name__))
        seen.add(len(weights1[0]) > 64)

    collect()
    assert {("equal", "Equal"), ("affine", "EqualUpToAffine"), ("different", "Different"), True, False} <= seen


def test_witness_is_least_by_offset_not_by_its_parts():
    # kinks differ on x = 1/2 and x = 1/3: 1/3 is the least offset, (1, 2) the least parts
    net1 = ShallowNet([["1"], ["1"]], ["-1/2", "-1/3"], ["1", "1"], "0")
    net2 = ShallowNet([["2"], ["3"]], ["-1", "-1"], ["1", "2/3"], "0")
    assert equivalence(net1, net2) == Different(_as_form(net1).terms[0][0])
    assert equivalence(net1, net2).witness.offset == F(1, 3)


def test_bias_and_affine_part_are_compared():
    relu = ShallowNet([["1", "0"]], ["0"], ["1"], "0")
    shifted = ShallowNet([["1", "0"]], ["0"], ["1"], "1/2")
    # relu(x) = relu(-x) + x, with x = relu(x + 1) - relu(-x - 1) - 1
    flipped = ShallowNet([["-1", "0"], ["2", "0"], ["-2", "0"]], ["0", "2", "-2"], ["1", "1/2", "-1/2"], "-1")
    assert equivalence(relu, shifted) == EqualUpToAffine((F(0), F(0)), F(-1, 2))
    assert equivalence(relu, flipped) == Equal()
    assert equivalence(relu, ShallowNet([["-1", "0"]], ["0"], ["1"], "0")) == EqualUpToAffine(
        (F(1), F(0)), F(0)
    )


def degenerate(d0, j):
    """A three-neuron net in d0 whose neuron j (1-based) has W2 = 0."""
    w2 = ["1", "1", "1"]
    w2[j - 1] = "0"
    return ShallowNet([["1"] * d0, ["2"] + ["0"] * (d0 - 1), ["-1"] * d0], ["0", "1", "2"], w2, "0")


def test_error_order():
    good1, good2 = ShallowNet([["1"]], ["0"], ["1"], "0"), ShallowNet([["1", "1"]], ["0"], ["1"], "0")
    bad1, bad2 = degenerate(1, 2), degenerate(2, 3)
    form2, tuple2 = _as_form(good2), effective_tuple(good2)
    assert outcome(lambda: equivalence(bad1, bad2)) == degenerate_at(2)
    assert outcome(lambda: equivalence(bad2, bad1)) == degenerate_at(3)
    for other in (good2, form2, tuple2):
        assert outcome(lambda: equivalence(good1, other))[0] is DimensionMismatch
        assert outcome(lambda: equivalence(other, good1))[0] is DimensionMismatch
        assert outcome(lambda: equivalence(bad1, other)) == degenerate_at(2)
        assert outcome(lambda: equivalence(other, bad1)) == degenerate_at(2)
    assert outcome(lambda: equivalence(good1, bad2)) == degenerate_at(3)
    with pytest.raises(DimensionMismatch, match="different ambient dimensions"):
        equivalence(CanonicalForm((), (0,), 0, 1), CanonicalForm((), (0, 0), 0, 2))
    with pytest.raises(ValueError, match="expected a net, effective tuple or canonical form"):
        equivalence(good1, "net.json")
