"""One form from every reader of the one relu triple.

``exact.relu_terms`` reads the triple that ``exact.relu_sum`` sums back as
kinks on breaklines plus an affine part, for tuples and nets
(``canonical._stage``) and for expressions (``pwa.flat_form``).  Tuples in
d0 1-3 are drawn with repeated breaklines, both orientations and kinks that
cancel on a breakline; each must give one form three ways:

- ``canonicalize(t)``;
- ``_as_form(expand(t, scales))``, the form of a raw net with the tuple's
  neurons rescaled;
- ``flat_form`` of the parsed expression ``sum k * relu(o * (d . x - q))``
  plus the output bias, with zero kinks dropped and the terms sorted.

As the three share ``relu_terms``, the form is also checked against a plain
``Fraction`` sum over the tuple's neurons at four drawn points.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from relugeo.canonical import CanonicalForm, _as_form, canonicalize
from relugeo.exact import primitive_row, rat_str
from relugeo.network import Breakline, EffectiveTuple, Neuron, expand
from relugeo.pwa import flat_form, parse_pwa

F = Fraction

small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
kinks = st.sampled_from([F(1), F(-1), F(2), F(-2), F(1, 2), F(-3, 2)])
scales = st.sampled_from([F(1, 3), F(1, 2), F(1), F(2), F(5, 2)])
orientations = st.sampled_from([1, -1])


@st.composite
def tuples(draw):
    """(t, scales, points): a tuple on a pool of at most three breaklines,
    where each neuron may be followed by one with the opposite kink on its
    breakline, a scale per neuron and four points in Q^d0."""
    d0 = draw(st.integers(1, 3))
    row = st.lists(st.integers(-2, 2), min_size=d0, max_size=d0).filter(any)
    rows = draw(st.lists(row, min_size=1, max_size=3))
    pool = [Breakline(primitive_row(r)[0], draw(small)) for r in rows]
    neurons = []
    for _ in range(draw(st.integers(1, 5))):
        bl, k = draw(st.sampled_from(pool)), draw(kinks)
        neurons.append(Neuron(bl, k, draw(orientations)))
        if draw(st.booleans()):  # the kinks on bl cancel, an affine part may stay
            neurons.append(Neuron(bl, -k, draw(orientations)))
    t = EffectiveTuple(tuple(neurons), draw(small))
    points = draw(st.lists(st.lists(small, min_size=d0, max_size=d0), min_size=4, max_size=4))
    return t, draw(st.lists(scales, min_size=t.d1, max_size=t.d1)), points


def expression(t):
    """The text of sum k * relu(o * (d . x - q)) + out_bias over t's neurons."""
    parts = [f"affine([{', '.join(['0'] * t.d0)}], {rat_str(t.out_bias)})"]
    for nr in t.neurons:
        bl = nr.breakline
        d = ", ".join(map(str, bl.direction))
        arg = f"{nr.orientation} * affine([{d}], {rat_str(-bl.offset)})"
        parts.append(f"{rat_str(nr.kink)} * relu({arg})")
    return " + ".join(parts)


def flat_read(t):
    terms, affine, bias = flat_form(parse_pwa(expression(t)))
    return CanonicalForm(sorted((bl, k) for bl, k in terms.items() if k), affine, bias, t.d0)


@settings(max_examples=300, deadline=None)
@given(tuples())
def test_every_reader_gives_one_form(case):
    t, a, points = case
    cf = canonicalize(t)
    assert _as_form(expand(t, a)) == cf
    assert flat_read(t) == cf
    # the readers share relu_terms: the form must also be t's response
    for x in points:
        assert cf.evaluator(x) == t.out_bias + sum(
            nr.kink * max(nr.orientation * nr.breakline.side(x), 0) for nr in t.neurons
        )


def test_cancelling_kinks_leave_the_moved_affine_part():
    bl = Breakline((1, -1), F(1, 2))
    t = EffectiveTuple((Neuron(bl, F(3), 1), Neuron(bl, F(-3), -1)), F(1))
    # 3 z_+ - 3 (-z)_+ = 3 z with z = x1 - x2 - 1/2
    cf = CanonicalForm((), (F(3), F(-3)), F(-1, 2), 2)
    assert canonicalize(t) == _as_form(expand(t, (F(2), F(1, 3)))) == flat_read(t) == cf
