"""Compiled integer evaluators against plain Fraction reference recursions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relugeo.canonical import CanonicalForm, canonicalize, evaluate_cf
from relugeo.errors import DimensionMismatch
from relugeo.exact import dot, primitive_direction, scaled_point, vec
from relugeo.network import Breakline, EffectiveTuple, Neuron, evaluate_tuple, tuple_evaluator
from relugeo.pwa import Affine, Max, Min, Neg, Relu, Scale, Sum, eval_pwa, evaluator

F = Fraction


def reference_eval_pwa(e, x):
    """Node-by-node evaluation over Fraction."""
    x = vec(x)
    if isinstance(e, Affine):
        assert len(e.coeffs) == len(x)
        return dot(e.coeffs, x) + e.const
    if isinstance(e, Relu):
        return max(reference_eval_pwa(e.child, x), F(0))
    if isinstance(e, Max):
        return max(reference_eval_pwa(e.left, x), reference_eval_pwa(e.right, x))
    if isinstance(e, Min):
        return min(reference_eval_pwa(e.left, x), reference_eval_pwa(e.right, x))
    if isinstance(e, Sum):
        return sum(reference_eval_pwa(c, x) for c in e.children)
    if isinstance(e, Scale):
        return e.factor * reference_eval_pwa(e.child, x)
    if isinstance(e, Neg):
        return -reference_eval_pwa(e.child, x)
    raise TypeError(f"not a PWA expression: {e!r}")


def reference_evaluate_tuple(t, x):
    """out_bias + sum_j kink_j * (orient_j * (d_j . x - q_j))_+ over Fraction."""
    x = vec(x)
    total = t.out_bias
    for nr in t.neurons:
        assert nr.breakline.d0 == len(x)
        pre = nr.orientation * nr.breakline.side(x)
        if pre > 0:
            total += nr.kink * pre
    return total


def reference_evaluate_cf(cf, x):
    """bias + affine . x + sum_i kink_i * (d_i . x - q_i)_+ over Fraction."""
    x = vec(x)
    assert len(x) == cf.d0
    total = cf.bias + dot(cf.affine, x)
    for bl, k in cf.terms:
        pre = bl.side(x)
        if pre > 0:
            total += k * pre
    return total


BIG = 10**6
fractions = st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG))
small_fractions = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
# a coordinate as an int, a Fraction or a "p/q" string
coordinates = st.one_of(
    st.integers(-BIG, BIG),
    fractions,
    fractions.map(lambda f: f"{f.numerator}/{f.denominator}"),
)


def points(d0):
    return st.lists(st.tuples(*[coordinates] * d0), min_size=1, max_size=8)


def expressions(d0):
    leaves = st.builds(Affine, st.tuples(*[small_fractions] * d0), small_fractions)

    def extend(children):
        return st.one_of(
            st.builds(Relu, children),
            st.builds(Max, children, children),
            st.builds(Min, children, children),
            st.builds(Sum, st.lists(children, min_size=2, max_size=4).map(tuple)),
            st.builds(Scale, small_fractions, children),
            st.builds(Neg, children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@st.composite
def neurons(draw, d0):
    raw = draw(st.tuples(*[st.integers(-6, 6)] * d0).filter(any))
    d, _ = primitive_direction(raw)
    kink = draw(fractions.filter(lambda k: k != 0))
    return Neuron(Breakline(d, draw(fractions)), kink, draw(st.sampled_from((1, -1))))


def tuples(d0):
    return st.builds(EffectiveTuple, st.lists(neurons(d0), max_size=6).map(tuple), fractions)


dims = st.integers(1, 4)


class TestScaledPoint:
    @given(dims.flatmap(points))
    def test_numerators_over_common_denominator(self, xs):
        for x in xs:
            X, D = scaled_point(x)
            assert D > 0 and all(isinstance(c, int) for c in X)
            assert tuple(F(c, D) for c in X) == vec(x)


class TestPWAEvaluator:
    @settings(max_examples=200, deadline=None)
    @given(dims.flatmap(lambda d0: st.tuples(expressions(d0), points(d0))))
    def test_matches_reference(self, case):
        e, xs = case
        f = evaluator(e)
        for x in xs:
            expected = reference_eval_pwa(e, x)
            assert f(x) == expected
            assert eval_pwa(e, x) == expected

    @given(dims.flatmap(lambda d0: st.tuples(expressions(d0), st.just(d0))))
    def test_wrong_length_rejected(self, case):
        e, d0 = case
        f = evaluator(e)
        for n in (d0 - 1, d0 + 1):
            with pytest.raises(DimensionMismatch):
                f((1,) * n)

    def test_mixed_leaf_dimensions_rejected(self):
        e = Sum((Affine((F(1),), F(0)), Affine((F(1), F(1)), F(0))))
        with pytest.raises(DimensionMismatch):
            evaluator(e)

    def test_non_expression_rejected(self):
        with pytest.raises(TypeError):
            evaluator(Relu("x"))


class TestTupleEvaluator:
    @settings(max_examples=200, deadline=None)
    @given(dims.flatmap(lambda d0: st.tuples(tuples(d0), points(d0))))
    def test_matches_reference(self, case):
        t, xs = case
        f = tuple_evaluator(t)
        for x in xs:
            expected = reference_evaluate_tuple(t, x)
            assert f(x) == expected
            assert evaluate_tuple(t, x) == expected

    @given(dims.flatmap(lambda d0: st.tuples(tuples(d0), st.just(d0))))
    def test_wrong_length_rejected(self, case):
        t, d0 = case
        if not t.neurons:
            assert tuple_evaluator(t)((1,) * (d0 + 1)) == t.out_bias
            return
        for n in (d0 - 1, d0 + 1):
            with pytest.raises(DimensionMismatch):
                tuple_evaluator(t)((1,) * n)


def forms(d0):
    return st.builds(
        lambda t, affine, bias: CanonicalForm(canonicalize(t, d0).terms, affine, bias, d0),
        tuples(d0),
        st.tuples(*[fractions] * d0),
        fractions,
    )


class TestFormEvaluator:
    @settings(max_examples=200, deadline=None)
    @given(dims.flatmap(lambda d0: st.tuples(forms(d0), points(d0))))
    def test_matches_reference(self, case):
        cf, xs = case
        for x in xs:
            expected = reference_evaluate_cf(cf, x)
            assert cf.evaluator(x) == expected
            assert evaluate_cf(cf, x) == expected

    @given(dims.flatmap(lambda d0: st.tuples(forms(d0), st.just(d0))))
    def test_wrong_length_rejected(self, case):
        cf, d0 = case
        for n in (d0 - 1, d0 + 1):
            with pytest.raises(DimensionMismatch, match=f"point has length {n}, form expects {d0}"):
                evaluate_cf(cf, (1,) * n)

    @given(dims.flatmap(forms))
    def test_compiled_once_and_not_a_field(self, cf):
        f = cf.evaluator
        assert cf.evaluator is f
        twin = CanonicalForm(cf.terms, cf.affine, cf.bias, cf.d0)
        assert twin == cf and hash(twin) == hash(cf) and repr(twin) == repr(cf)
