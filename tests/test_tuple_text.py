"""`synth`'s writer against a field-by-field reference.

``jsonio.tuple_text`` renders a tuple through the one renderer `canon`,
`classify` and `enum` use, each distinct direction and `Neuron` once.  The
reference below builds the tuple's dict one field at a time, with its own
rational strings and without ``jsonio``, and the stdlib encoder writes it:
``tuple_text`` must be those bytes, and ``tuple_to_dict`` that dict.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relugeo import jsonio
from relugeo.cli import run
from relugeo.exact import primitive_direction
from relugeo.network import Breakline, EffectiveTuple, Neuron

F = Fraction


def ref_rat(x):
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def ref(t):
    neurons = []
    for nr in t.neurons:
        neurons.append(
            {
                "d": list(nr.breakline.direction),
                "q": ref_rat(nr.breakline.offset),
                "kink": ref_rat(nr.kink),
                "orient": nr.orientation,
            }
        )
    return {"neurons": neurons, "bias": ref_rat(t.out_bias)}


# offsets, kinks and biases: negative, fractional and multi-digit
rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


@st.composite
def tuples(draw):
    """Tuples in d0 1-4 over a few shared breaklines, with some `Neuron`
    objects repeated, and possibly no neurons at all."""
    d0 = draw(st.integers(1, 4))
    row = st.lists(st.integers(-(10**5), 10**5), min_size=d0, max_size=d0).filter(any)
    lines = draw(
        st.lists(
            st.builds(lambda r, q: Breakline(primitive_direction(r)[0], q), row, rationals),
            min_size=1,
            max_size=3,
        )
    )
    neurons = []
    for _ in range(draw(st.integers(0, 6))):
        if neurons and draw(st.booleans()):
            neurons.append(draw(st.sampled_from(neurons)))  # the same object again
        else:
            bl = draw(st.sampled_from(lines))
            neurons.append(Neuron(bl, draw(rationals), draw(st.sampled_from([1, -1]))))
    return EffectiveTuple(tuple(neurons), draw(rationals))


@settings(max_examples=300, deadline=None)
@given(tuples())
def test_tuple_text_is_the_stdlib_encoding(t):
    assert jsonio.tuple_text(t) == json.dumps(ref(t), indent=2)
    assert jsonio.tuple_to_dict(t) == ref(t)


@pytest.mark.parametrize(
    "t",
    [
        EffectiveTuple((), F(0)),
        EffectiveTuple((), F(-7, 3)),
        EffectiveTuple((Neuron(Breakline((1, -2, 0, 31), F(-15, 4)), F(-123, 10), -1),) * 3, 12),
        EffectiveTuple(
            (
                Neuron(Breakline((0, 1), F(5, 2)), F(2), 1),
                Neuron(Breakline((0, 1), F(-5, 2)), F(-2), -1),
                Neuron(Breakline((0, 1), F(5, 2)), F(2), 1),
            ),
            F(1, 100),
        ),
    ],
    ids=["empty", "empty-fractional-bias", "one-neuron-repeated", "shared-direction"],
)
def test_tuple_text_cases(t):
    assert jsonio.tuple_text(t) == json.dumps(ref(t), indent=2)
    assert jsonio.tuple_to_dict(t) == ref(t)


def synth(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["synth", str(path)])
    return code, out.getvalue()


def test_synth_of_a_constant_prints_no_neurons(tmp_path):
    code, out = synth(tmp_path, {"expr": "affine([0,0],3)", "breaklines": []})
    assert code == 0
    assert out == json.dumps({"neurons": [], "bias": "3"}, indent=2) + "\n"


def test_synth_of_an_affine_spec_prints_a_cancelling_pair(tmp_path):
    code, out = synth(tmp_path, {"expr": "affine([1,-2],1/2)", "breaklines": []})
    assert code == 0
    pair = [{"d": [1, -2], "q": "0", "kink": k, "orient": o} for k, o in (("1", 1), ("-1", -1))]
    assert out == json.dumps({"neurons": pair, "bias": "1/2"}, indent=2) + "\n"
