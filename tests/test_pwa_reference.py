"""Breaklines of flat expressions against a Fraction reference walk.

``reference_flat_breaklines`` folds affine subtrees over ``Fraction`` node by
node, the way the expression module did before breaklines were read off its
integer compile.  The integer path must return the same breaklines in the same
order, or raise NotFlat with the same message.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relugeo.errors import NotFlat
from relugeo.exact import primitive_direction
from relugeo.network import Breakline
from relugeo.pwa import Affine, Max, Min, Neg, Relu, Scale, Sum, flat_breaklines, parse_pwa

F = Fraction


def reference_linearize(e):
    """(gradient, const) over Fraction when the subtree is affine, else None."""
    if isinstance(e, Affine):
        return tuple(F(c) for c in e.coeffs), F(e.const)
    if isinstance(e, Neg):
        g = reference_linearize(e.child)
        return None if g is None else (tuple(-c for c in g[0]), -g[1])
    if isinstance(e, Scale):
        g = reference_linearize(e.child)
        return None if g is None else (tuple(e.factor * c for c in g[0]), e.factor * g[1])
    if isinstance(e, Sum):
        parts = [reference_linearize(c) for c in e.children]
        if any(p is None for p in parts):
            return None
        grad, const = parts[0]
        for g, c in parts[1:]:
            grad = tuple(a + b for a, b in zip(grad, g))
            const += c
        return grad, const
    return None


def reference_flat_breaklines(e):
    out = []

    def add(grad, const):
        if all(c == 0 for c in grad):
            return
        d, s = primitive_direction(grad)
        bl = Breakline(d, -const / s)
        if bl not in out:
            out.append(bl)

    def walk(node):
        if isinstance(node, (Scale, Neg)):
            walk(node.child)
        elif isinstance(node, Sum):
            for c in node.children:
                walk(c)
        elif isinstance(node, Relu):
            lin = reference_linearize(node.child)
            if lin is None:
                raise NotFlat("relu argument is not affine")
            add(*lin)
        elif isinstance(node, (Max, Min)):
            left, right = reference_linearize(node.left), reference_linearize(node.right)
            if left is None or right is None:
                raise NotFlat("max/min argument is not affine")
            add(tuple(a - b for a, b in zip(left[0], right[0])), left[1] - right[1])

    walk(e)
    return out


# few distinct values, so repeated and scaled breaklines and constant
# arguments come up often; factors are negative, zero and fractional too
coefficients = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
factors = st.builds(F, st.integers(-6, 6), st.integers(1, 5))


LINEAR = ["sum", "scale", "neg"]
ALL = LINEAR + ["relu", "max", "min"]
MOSTLY_KINKS = LINEAR + ["relu", "max", "min"] * 3


@st.composite
def trees(draw, d0, depth=3, kinds=MOSTLY_KINKS):
    """A tree of at most depth levels whose inner nodes are of the given kinds.

    Relu/Max/Min arguments are affine subtrees two times in three and any
    tree otherwise, so flat and nested expressions both come up often.
    """
    kind = draw(st.sampled_from(["leaf"] + (kinds if depth else [])))
    if kind == "leaf":
        return Affine(tuple(draw(coefficients) for _ in range(d0)), draw(coefficients))
    if kind in LINEAR:
        sub = lambda: draw(trees(d0, depth - 1, kinds))
        if kind == "sum":
            return Sum(tuple(sub() for _ in range(draw(st.integers(2, 3)))))
        return Scale(draw(factors), sub()) if kind == "scale" else Neg(sub())
    arg = lambda: draw(trees(d0, 2, draw(st.sampled_from([LINEAR, LINEAR, ALL]))))
    if kind == "relu":
        return Relu(arg())
    return (Max if kind == "max" else Min)(arg(), arg())


def sums(d0):
    """One to four trees, summed when there are several."""
    return st.lists(trees(d0), min_size=1, max_size=4).map(
        lambda ts: ts[0] if len(ts) == 1 else Sum(tuple(ts))
    )


def outcome(f, e):
    try:
        return "ok", f(e)
    except NotFlat as exc:
        return "NotFlat", str(exc)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 3).flatmap(sums))
def test_flat_breaklines_match_fraction_walk(e):
    assert outcome(flat_breaklines, e) == outcome(reference_flat_breaklines, e)


@pytest.mark.parametrize(
    "text",
    [
        # scaled duplicates collapse onto the first breakline
        "relu(affine([2,-4],6)) + -1/3 * relu(affine([-1,2],-3))",
        # a max/min difference with cancelling gradient has no breakline
        "-max(1/2 * affine([2],1), affine([1],-5))",
        # fractional coefficients on both sides of a min
        "min(affine([1/3,1/2],1/7), affine([0,1],0) + -affine([1,0],2/5))",
    ],
    ids=["scaled-duplicate", "constant-difference", "fractional-min"],
)
def test_hand_picked_cases(text):
    e = parse_pwa(text)
    assert flat_breaklines(e) == reference_flat_breaklines(e)
