"""``pwa.flat_form`` against a reference walk of the expression tree.

``reference_flat_form`` walks the tree on its own, the way the expression
module did before the flat form was read off the compile that evaluates the
expression: each Relu and Max/Min argument is compiled to an affine integer
row on its own, the affine pieces are rebuilt as ``Scale`` nodes and compiled
once more at the end.  The compiled path must give the same terms in the same
order, the same affine part and bias, or raise NotFlat with the same message.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relugeo.errors import NotFlat
from relugeo.exact import primitive_row, rat, rat_parts, vec
from relugeo.network import Breakline
from relugeo.pwa import Affine, Max, Min, Neg, Relu, Scale, Sum, expr_dim, flat_form, parse_pwa

from test_flat_read_off import flat_exprs
from test_pwa_reference import sums


def reference_row(e):
    """(m, row, c) with e(x) == (row . x + c) / m when e is affine, else None."""
    if isinstance(e, Affine):
        coeffs = (*vec(e.coeffs), rat(e.const))
        m = lcm(*(c.denominator for c in coeffs))
        *row, c = (c.numerator * (m // c.denominator) for c in coeffs)
        return m, tuple(row), c
    if isinstance(e, Sum):
        parts = [reference_row(c) for c in e.children]
        if None in parts:
            return None
        m = lcm(*(mc for mc, _, _ in parts))
        rows = [[(m // mc) * a for a in row] for mc, row, _ in parts]
        return m, tuple(map(sum, zip(*rows))), sum((m // mc) * c for mc, _, c in parts)
    if isinstance(e, (Scale, Neg)):
        lin = reference_row(e.child)
        if lin is None:
            return None
        (m, row, c), (p, q) = lin, rat_parts(e.factor) if isinstance(e, Scale) else (-1, 1)
        return m * q, tuple(p * a for a in row), p * c
    if isinstance(e, (Relu, Max, Min)):
        return None
    raise TypeError(f"not a PWA expression: {e!r}")


def reference_terms(e):
    """(terms, pieces): e is the sum of kink * (d . x - q)_+ over terms plus the affine pieces."""
    terms, pieces = {}, []

    def relu(arg, w, message):
        lin = reference_row(arg)
        if lin is None:
            raise NotFlat(message)
        m, row, c = lin
        if not any(row):  # a constant argument: relu is the argument or 0
            if c > 0:
                pieces.append(Scale(w, arg))
            return
        d, g = primitive_row(row)
        bl = Breakline(d, Fraction(-c, g))
        terms[bl] = terms.get(bl, 0) + w * abs(g) / m
        if g < 0:
            pieces.append(Scale(w, arg))

    def walk(node, w):
        if isinstance(node, (Scale, Neg)):
            walk(node.child, w * rat(node.factor) if isinstance(node, Scale) else -w)
        elif isinstance(node, Sum):
            for c in node.children:
                walk(c, w)
        elif isinstance(node, Relu):
            relu(node.child, w, "relu argument is not affine")
        elif isinstance(node, (Max, Min)):
            sign = 1 if isinstance(node, Max) else -1
            relu(Sum((node.left, Neg(node.right))), sign * w, "max/min argument is not affine")
            pieces.append(Scale(w, node.right if sign == 1 else node.left))
        elif isinstance(node, Affine):
            pieces.append(Scale(w, node))
        else:
            raise TypeError(f"not a PWA expression: {node!r}")

    walk(e, Fraction(1))
    return terms, pieces


def reference_flat_form(e):
    terms, pieces = reference_terms(e)
    m, row, c = reference_row(Sum(tuple(pieces)))
    row = row or (0,) * expr_dim(e)  # no affine pieces at all
    return terms, tuple(Fraction(a, m) for a in row), Fraction(c, m)


def outcome(f, e):
    """("ok", ordered terms, affine, bias) or ("NotFlat", message)."""
    try:
        terms, affine, bias = f(e)
    except NotFlat as exc:
        return "NotFlat", str(exc)
    return "ok", list(terms.items()), affine, bias


# flat sums of relus, max/min, constant arguments, zero and negative factors
# and cancelling kinks; and trees whose relu arguments are themselves kinked
expressions = st.integers(1, 3).flatmap(lambda d0: st.one_of(flat_exprs(d0), sums(d0)))


@settings(max_examples=600, deadline=None)
@given(expressions)
def test_flat_form_matches_reference_walk(e):
    assert outcome(flat_form, e) == outcome(reference_flat_form, e)


@pytest.mark.parametrize(
    "text",
    [
        # constant arguments: a positive one adds itself, a negative one nothing
        "relu(affine([0,0],3)) + relu(affine([0,0],-3)) + relu(affine([1,-1],0))",
        # zero and negative factors on kinked and affine pieces
        "0 * relu(affine([1],1)) + -2 * relu(affine([-1],1)) + -1/3 * affine([3],2)",
        # kinks that cancel to zero, the breakline kept with a zero kink
        "2 * relu(affine([1,2],1)) + -relu(affine([2,4],2)) + relu(affine([0,1],0))",
        "max(affine([1,0],0), affine([-1,1],2)) + min(1/2 * affine([2,1],1), affine([0,1],0))",
        "-max(1/2 * affine([2],1), affine([1],-5))",
        "relu(affine([1],0)) + max(relu(affine([1],0)), affine([1],1))",
        "relu(affine([1],0)) + relu(-relu(affine([1],0)))",
        "relu(-(affine([1],0) + -2 * affine([1],0)))",
    ],
    ids=[
        "constant-arguments",
        "zero-negative-factors",
        "cancelling-kinks",
        "max-min",
        "constant-difference",
        "nested-max",
        "nested-relu",
        "negated-sum",
    ],
)
def test_hand_picked_cases(text):
    e = parse_pwa(text)
    assert outcome(flat_form, e) == outcome(reference_flat_form, e)
