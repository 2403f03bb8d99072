"""The canonical form read off a raw net's integer rows, and the `canon` writer.

``canonical._as_form`` reads a net's rows straight into the canonicalization
core.  The references go through the per-neuron objects instead: the form of
``canonicalize(effective_tuple(net))``, and the plain Fraction loops of
`test_raw_net` over the weights as generated, which share no code with the
core.  ``jsonio.form_text`` must be byte for byte what the stdlib encoder
writes for the form's dict.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relugeo import jsonio
from relugeo.canonical import CanonicalForm, _as_form, canonicalize
from relugeo.errors import DegenerateNeuron
from relugeo.network import Breakline, Neuron, ShallowNet, _trusted, effective_tuple

from test_raw_net import reference_canonicalize, reference_effective_tuple

F = Fraction

small = st.fractions(min_value=-4, max_value=4, max_denominator=4)
nonzero = small.filter(bool)
positive = st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4)


# -- trusted construction --------------------------------------------------


def test_trusted_objects_equal_hash_and_repr_like_public_ones():
    bl = Breakline((1, -2), F(1, 3))
    nr = Neuron(bl, F(-5, 2), -1)
    cf = CanonicalForm(((bl, F(2)),), (F(1), F(0)), F(-1), 2)
    t_bl = _trusted(Breakline, (1, -2), F(1, 3))
    t_nr = _trusted(Neuron, t_bl, F(-5, 2), -1)
    t_cf = _trusted(CanonicalForm, ((t_bl, F(2)),), (F(1), F(0)), F(-1), 2)
    for public, trusted in ((bl, t_bl), (nr, t_nr), (cf, t_cf)):
        assert trusted == public and public == trusted
        assert hash(trusted) == hash(public)
        assert repr(trusted) == repr(public)
    assert t_bl < Breakline((1, -2), F(1, 2))
    assert t_cf.evaluator((1, 0)) == cf.evaluator((1, 0)) == F(4, 3)


# -- the net path against the per-neuron path -------------------------------


@st.composite
def raw_nets(draw):
    """(d0, weights as Fractions) in d0 1-16 with few hyperplanes, so neurons
    split on one breakline, take both orientations of it, cancel to a zero
    kink or to an affine function; degenerate neurons are sometimes mixed in,
    and the neuron list is sometimes repeated to span several row blocks."""
    d0 = draw(st.integers(1, 16))
    normal = st.lists(st.integers(-3, 3), min_size=d0, max_size=d0).filter(any)
    planes = draw(st.lists(st.tuples(normal, small), min_size=1, max_size=3))
    kinds = ["plain", "split", "flip", "affine"]
    if draw(st.booleans()):
        kinds += ["zero-row", "zero-out"]
    neurons = []  # (w1 row, b1, w2)

    def neuron(plane, scale, out):
        n, c = plane
        return tuple(scale * e for e in n), scale * c, out

    for _ in range(draw(st.integers(1, 6))):
        kind, plane = draw(st.sampled_from(kinds)), draw(st.sampled_from(planes))
        s, t, k = draw(positive), draw(positive), draw(nonzero)
        sign = draw(st.sampled_from([1, -1]))
        if kind == "zero-row":
            neurons.append(((F(0),) * d0, draw(small), k))
        elif kind == "zero-out":
            neurons.append(neuron(plane, sign * s, F(0)))
        elif kind == "plain":
            neurons.append(neuron(plane, sign * s, k))
        elif kind == "split":  # kinks k and -k on one orientation: the term drops
            neurons += [neuron(plane, sign * s, k / s), neuron(plane, sign * t, -k / t)]
        elif kind == "flip":  # both orientations of one breakline
            neurons += [neuron(plane, s, k), neuron(plane, -t, draw(nonzero))]
        else:  # k (z)_+ - k (-z)_+ = k z: no term, an affine part
            neurons += [neuron(plane, s, k / s), neuron(plane, -t, -k / t)]
    neurons *= draw(st.sampled_from([1, 1, 1, 30]))
    w1, b1, w2 = (tuple(col) for col in zip(*neurons))
    return d0, (w1, b1, w2, draw(small))


@settings(max_examples=300, deadline=None)
@given(raw_nets())
def test_form_read_off_rows_equals_per_neuron_form(case):
    d0, weights = case
    w1, b1, w2, b2 = weights
    # "p/q", or "p" for an integer, as in the net files the CLI reads
    net = ShallowNet([list(map(str, row)) for row in w1], [*map(str, b1)], [*map(str, w2)], str(b2))
    try:
        expected = reference_canonicalize(reference_effective_tuple(*weights), d0)
    except DegenerateNeuron as exc:
        for path in (lambda: _as_form(net), lambda: effective_tuple(net)):
            with pytest.raises(DegenerateNeuron) as got:
                path()
            assert got.value.args == exc.args
        return
    assert _as_form(net) == canonicalize(effective_tuple(net), d0) == expected


def test_cancelling_and_affine_nets():
    # relu(x) - relu(x) on one orientation, then 2 relu(x) - 2 relu(-x) = 2x
    cancel = ShallowNet([["1"], ["2"]], ["0", "0"], ["1", "-1/2"], "3")
    assert _as_form(cancel) == CanonicalForm((), (0,), 3, 1)
    affine = ShallowNet([["1", "0"], ["-1/2", "0"]], ["1", "-1/2"], ["2", "-4"], "0")
    assert _as_form(affine) == CanonicalForm((), (2, 0), 2, 2)
    assert _as_form(affine) == canonicalize(effective_tuple(affine))


@pytest.mark.parametrize("j", [1, 64, 65, 130])
def test_first_degenerate_neuron_is_named(j):
    w1, b1, w2 = [["1", "2"]] * 130, ["0"] * 130, ["1"] * 130
    w2 = w2[: j - 1] + ["0"] + w2[j:]
    w1 = w1[:-1] + [["0", "0"]]  # a later degenerate neuron
    for path in (_as_form, effective_tuple):
        with pytest.raises(DegenerateNeuron) as got:
            path(ShallowNet(w1, b1, w2, "0"))
        assert got.value.args == DegenerateNeuron(j).args


# -- the canon writer -------------------------------------------------------

DIRECTIONS = [(1,), (1, 0), (0, 1), (1, -2), (2, 1, -1), (0, 0, 1)]


@st.composite
def forms(draw):
    """Forms with repeated directions, often no terms, often d0 = 1."""
    d0 = draw(st.sampled_from([1, 1, 2, 3]))
    pool = [d for d in DIRECTIONS if len(d) == d0]
    offsets = st.sampled_from([F(0), F(-1), F(1, 2), F(-7, 3)]) | small
    count = draw(st.integers(0, 6))
    bls = {Breakline(draw(st.sampled_from(pool)), draw(offsets)) for _ in range(count)}
    terms = [(bl, draw(nonzero)) for bl in sorted(bls)]
    affine = draw(st.lists(small, min_size=d0, max_size=d0))
    return CanonicalForm(terms, affine, draw(small), d0)


def reference_form_dict(cf):
    """The form's JSON data, one fresh dict per term, built without jsonio."""
    s = lambda v: str(Fraction(v))
    return {
        "terms": [{"d": list(bl.direction), "q": s(bl.offset), "kink": s(k)} for bl, k in cf.terms],
        "affine": [s(e) for e in cf.affine],
        "bias": s(cf.bias),
        "d0": cf.d0,
    }


@settings(max_examples=300, deadline=None)
@given(forms())
def test_form_text_is_the_stdlib_encoding(cf):
    text = jsonio.form_text(cf)
    assert text == json.dumps(jsonio.form_to_dict(cf), indent=2)
    assert text == json.dumps(reference_form_dict(cf), indent=2)
    assert jsonio.form_from_dict(jsonio.form_to_dict(cf)) == cf


def test_form_text_of_a_net_form():
    # both rows lie on x1 - 2 x2 = q: at q = -1/2 and, oriented the other way, q = 3/2
    cf = _as_form(ShallowNet([["2", "-4"], ["-1", "2"]], ["1", "3/2"], ["1", "1/3"], "-1/2"))
    assert cf.breaklines == (Breakline((1, -2), F(-1, 2)), Breakline((1, -2), F(3, 2)))
    assert jsonio.form_text(cf) == json.dumps(reference_form_dict(cf), indent=2)
