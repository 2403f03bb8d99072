"""A nested spec's form is read off one relu triple; only the result is a network.

``synthesis._nested_form`` collects the second difference on each hyperplane
as an integer relu, fits the affine part against their response
(``network._response``), checks f against the triple of all three
(``network._relu_kernel``) on every cell and reads that triple with
``pwa._read_flat``.  So a nested ``synth``, checked or ``--unchecked``, builds
exactly one `EffectiveTuple`, the one ``synthesize`` returns, and never calls
``tuple_evaluator``; and the form of the nested max(g + A, g + B) is
``flat_form`` of its flat twin g + B + relu(A - B) with the zero kinks
dropped.
"""

import pytest
from hypothesis import assume, given, settings
from test_nested_read_off import MAX_EXPR, nested_pairs, synth

from relugeo import network, synthesis
from relugeo.network import Breakline, EffectiveTuple
from relugeo.pwa import _compile, expr_dim, flat_form, parse_pwa
from relugeo.synthesis import _nested_form

# g = relu(x) + relu(x - 2) - relu(x - 2): the twin's kink on x = 2 sums to zero
G = "relu(affine([1],0)) + relu(affine([1],-2)) + -relu(affine([1],-2))"
CANCELLING = (f"max({G} + affine([1],-3), {G} + affine([0],0))", f"{G} + relu(affine([1],-3))")

# (expression, declared breaklines as (d, q)), each a network's response
SPECS = [
    (MAX_EXPR, [([1], "0"), ([1], "3")]),
    (CANCELLING[0], [([1], "0"), ([1], "2"), ([1], "3")]),
    (
        "max(relu(affine([1,0],0)) + affine([0,1],1), relu(affine([1,0],0)) + affine([1,1],0))",
        [([1, 0], "0"), ([1, 0], "1")],
    ),
]


@pytest.fixture
def built(monkeypatch):
    """EffectiveTuples built through their constructor and ``tuple_evaluator`` calls."""
    counts = {"tuples": 0, "tuple_evaluator": 0}
    post_init = EffectiveTuple.__post_init__

    def counted_init(self):
        counts["tuples"] += 1
        post_init(self)

    def counted_evaluator(t):
        counts["tuple_evaluator"] += 1
        return evaluator(t)

    evaluator = network.tuple_evaluator
    monkeypatch.setattr(EffectiveTuple, "__post_init__", counted_init)
    for module in (network, synthesis):
        monkeypatch.setattr(module, "tuple_evaluator", counted_evaluator)
    return counts


@pytest.mark.parametrize("flags", [[], ["--unchecked"]], ids=["checked", "unchecked"])
@pytest.mark.parametrize("expr, declared", SPECS, ids=["max", "cancelling", "plane"])
def test_nested_synth_builds_one_tuple(built, tmp_path, expr, declared, flags):
    code, out = synth(tmp_path, expr, declared, *flags)
    assert code == 0, out
    assert built == {"tuples": 1, "tuple_evaluator": 0}


def nested_form_of(nested, breaklines):
    e = parse_pwa(nested)
    num, m, _, knots = _compile(e)
    return _nested_form(num, m, knots, breaklines, expr_dim(e))


def nonzero_flat_form(flat):
    terms, affine, bias = flat_form(parse_pwa(flat))
    return {bl: k for bl, k in terms.items() if k}, affine, bias


@settings(max_examples=60, deadline=None)
@given(nested_pairs())
def test_nested_form_is_the_flat_twins(pair):
    nested, flat, breaklines = pair
    assume(_compile(parse_pwa(nested))[3] is not None)  # with g = 0 the max is flat
    assert nested_form_of(nested, breaklines) == nonzero_flat_form(flat)


def test_cancelled_kink_is_dropped():
    declared = [Breakline((1,), q) for q in (0, 2, 3)]
    terms, affine, bias = flat_form(parse_pwa(CANCELLING[1]))
    assert list(terms.values()) == [1, 0, 1]
    form = nested_form_of(CANCELLING[0], declared)
    assert form == nonzero_flat_form(CANCELLING[1])
    assert set(form[0]) == {Breakline((1,), 0), Breakline((1,), 3)}
