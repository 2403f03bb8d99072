"""Flat specs read off in closed form against the measuring path.

``synthesize`` reads every flat expression straight off ``pwa.flat_form``,
checked or not.  The measuring path, ``synthesize_evaluator`` on the
compiled expression, probes every jump and samples 1000 points instead.  Both
must return the same tuple, or raise the same exception with the same
message, whatever the declaration: the auto breaklines, a superset of them in
any order, one that is not transversal, or any of these unchecked.  The one
exception is a declaration that lacks a kinked breakline of the flat form:
the read-off raises MissingBreakline for the first such breakline, where
measuring fails on whichever residual or jump it meets first.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from relugeo.network import Breakline, EffectiveTuple, Neuron
from relugeo.pwa import Affine, Max, Min, Neg, PWASpec, Relu, Scale, Sum, evaluator, expr_dim
from relugeo.pwa import flat_breaklines, flat_form, parse_pwa
from relugeo.synthesis import synthesize, synthesize_evaluator

F = Fraction

# few distinct directions and offsets, so terms share breaklines often
coefficients = st.builds(F, st.integers(-2, 2), st.sampled_from([1, 2]))
factors = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 3]))  # zero and negative too
DIRECTIONS = {
    1: [(1,)],
    2: [(1, 0), (0, 1), (1, -1)],
    3: [(1, 0, 0), (0, 1, -1), (1, 1, 0), (0, 0, 1)],
}


@st.composite
def affines(draw, d0):
    """An affine argument: a multiple (positive, negative or zero) of a known
    direction, sometimes split into a sum or wrapped in Scale and Neg."""
    k = draw(st.sampled_from([F(-2), F(-1), F(0), F(1, 2), F(1), F(3)]))
    d = draw(st.sampled_from(DIRECTIONS[d0]))
    leaf = Affine(tuple(k * e for e in d), draw(coefficients))
    shape = draw(st.sampled_from(["leaf", "leaf", "sum", "scale", "neg"]))
    if shape == "sum":
        zero = Affine((F(0),) * d0, draw(coefficients))
        return Sum((leaf, Neg(zero)))
    if shape == "scale":
        f = draw(st.sampled_from([F(1, 2), F(2), F(3)]))
        return Scale(f, Affine(tuple(e / f for e in leaf.coeffs), leaf.const / f))
    return Neg(Neg(leaf)) if shape == "neg" else leaf


@st.composite
def atoms(draw, d0):
    kind = draw(st.sampled_from(["affine", "relu", "relu", "max", "min", "cancel"]))
    a = draw(affines(d0))
    if kind == "affine":
        return a
    if kind == "relu":
        return Relu(a)
    if kind == "cancel":
        # c * relu(a) - (c / k) * relu(k * a) with k > 0: the kinks cancel
        c, k = draw(factors), draw(st.sampled_from([F(1), F(2), F(1, 3)]))
        return Sum((Scale(c, Relu(a)), Neg(Scale(c / k, Relu(Scale(k, a))))))
    other = Sum((a, draw(affines(d0))))
    return (Max if kind == "max" else Min)(a, other)


@st.composite
def flat_exprs(draw, d0, depth=2):
    kind = draw(st.sampled_from(["atom", "atom", "sum", "scale", "neg"] if depth else ["atom"]))
    if kind == "atom":
        return draw(atoms(d0))
    child = lambda: draw(flat_exprs(d0, depth - 1))
    if kind == "sum":
        return Sum(tuple(child() for _ in range(draw(st.integers(2, 3)))))
    return Scale(draw(factors), child()) if kind == "scale" else Neg(child())


@st.composite
def flat_specs(draw, edit):
    """(expr, declared breaklines) with the auto breaklines edited by ``edit``:
    "auto", "superset", "drop" (a kinked term left out) or "concurrent"."""
    d0 = draw(st.integers(1, 3))
    parts = draw(st.lists(flat_exprs(d0), min_size=1, max_size=4))
    e = parts[0] if len(parts) == 1 else Sum(tuple(parts))
    declared = flat_breaklines(e)
    if edit == "superset":
        extra = Breakline(draw(st.sampled_from(DIRECTIONS[d0])), draw(coefficients))
        if extra not in declared:
            declared.insert(draw(st.integers(0, len(declared))), extra)
        declared = draw(st.permutations(declared))
    elif edit == "drop":
        kinked = [bl for bl, kink in flat_form(e)[0].items() if kink]
        if kinked:
            declared.remove(draw(st.sampled_from(kinked)))
    elif edit == "concurrent":
        # d0 + 1 hyperplanes through one point, or with d0 = 1 a repeated one
        p = [draw(coefficients) for _ in range(d0)]
        for d in DIRECTIONS[d0][: d0 + 1] * (2 if d0 == 1 else 1):
            bl = Breakline(d, sum(a * b for a, b in zip(d, p)))
            declared.insert(draw(st.integers(0, len(declared))), bl)
    return e, list(declared)


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # the exception type and message are the outcome
        return type(exc).__name__, str(exc)


def both_paths(e, declared, check=True, seed=0):
    measured = outcome(
        synthesize_evaluator, evaluator(e), declared, expr_dim(e), seed=seed, check=check
    )
    read = outcome(synthesize, PWASpec(e, tuple(declared)), check=check)
    return read, measured


@settings(max_examples=150, deadline=None)
@given(flat_specs("auto"))
def test_auto_breaklines_read_off_as_measured(spec):
    read, measured = both_paths(*spec)
    assert read == measured


@settings(max_examples=100, deadline=None)
@given(flat_specs("superset"), st.integers(0, 50))
def test_declared_superset_read_off_as_measured(spec, seed):
    read, measured = both_paths(*spec, seed=seed)
    assert read == measured


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["drop", "concurrent", "auto"]).flatmap(flat_specs), st.booleans())
def test_measuring_path_errors_unchanged(spec, check):
    e, declared = spec
    read, measured = both_paths(e, declared, check=check)
    missing = [bl for bl, kink in flat_form(e)[0].items() if kink and bl not in declared]
    # the transversality check's errors come first on both paths
    if missing and not (check and measured[0] in ("NotTransversal", "CapExceeded")):
        d, q = missing[0].direction, missing[0].offset
        assert read == ("NotRepresentable", f"MissingBreakline: kink on {list(d)}.x = {q}")
    else:
        assert read == measured


def test_cancelling_relus_keep_their_breakline_but_no_neuron():
    e = parse_pwa("relu(affine([1],0)) + -1/2 * relu(affine([2],0)) + affine([3],1)")
    terms, affine, bias = flat_form(e)
    assert terms == {Breakline((1,), 0): 0}
    assert (affine, bias) == ((3,), 1)
    t = synthesize(PWASpec(e, tuple(flat_breaklines(e))))
    bl = Breakline((1,), 0)
    assert t == EffectiveTuple((Neuron(bl, 3, 1), Neuron(bl, -3, -1)), 1)


def test_negative_row_adds_its_argument():
    # relu(-2x + 1) = 2 * relu(x - 1/2) - 2x + 1
    terms, affine, bias = flat_form(parse_pwa("relu(affine([-2],1))"))
    assert terms == {Breakline((1,), F(1, 2)): 2}
    assert (affine, bias) == ((-2,), 1)


def test_constant_argument_goes_to_the_bias():
    assert flat_form(parse_pwa("relu(affine([0],3)) + relu(affine([0],-3))")) == ({}, (0,), 3)


def test_relus_alone_leave_a_zero_affine_part_of_full_length():
    terms, affine, bias = flat_form(parse_pwa("relu(affine([1,0],0)) + relu(affine([0,0],-1))"))
    assert terms == {Breakline((1, 0), 0): 1}
    assert (affine, bias) == ((0, 0), 0)
