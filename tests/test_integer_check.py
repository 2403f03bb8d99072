"""The synthesis check on integer numerators against the Fraction check it replaced.

``synthesize_evaluator`` compares f with the synthesized response on seeded
points through the integer numerators of both (``exact.compiled`` leaves
them on every compiled evaluator as ``kernel``; a black-box f is lifted to
f(x) * D).  ``reference_synthesize_evaluator`` finds the same kinks, by the
older peeling of a residual, then compares point by point in ``Fraction``.
Both must return the same tuple or raise the same exception with the same
message, point included.

The integer check rests on every compiled numerator being positively
homogeneous in (X, D); the homogeneity tests pin that for expressions,
tuples, forms and raw nets.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from relugeo.canonical import CanonicalForm
from relugeo.errors import NotRepresentable, NotTransversal, RelugeoError
from relugeo.exact import is_zero, primitive_direction
from relugeo.network import (
    Breakline,
    EffectiveTuple,
    Neuron,
    ShallowNet,
    affine_pair,
    _net_relus,
    _response,
    evaluate_net,
    tuple_evaluator,
)
from relugeo.pwa import evaluator
from relugeo.synthesis import (
    _fit_around,
    _safe_step,
    check_transversality,
    jump_vector,
    point_on_breakline,
    synthesize_evaluator,
)

from conftest import random_breakline, random_transversal_form
from test_compiled_eval import forms, tuples
from test_pwa_reference import trees

F = Fraction


def reference_synthesize_evaluator(f, breaklines, d0, seed=0, check=True, n_verify=1000):
    """Peeling, then one seeded Fraction point at a time through both evaluators."""
    breaklines = list(breaklines)
    if check:
        violation = check_transversality(breaklines)
        if violation is not None:
            raise NotTransversal(violation)
    residual = f
    peeled = []
    for k in range(len(breaklines) - 1, -1, -1):
        bl = breaklines[k]
        x = point_on_breakline(breaklines, k, seed + k)
        jump = jump_vector(residual, bl, x, step=_safe_step(breaklines, k, x))
        if is_zero(jump):
            continue
        d, kink = primitive_direction(jump)
        if d != bl.direction:
            raise NotRepresentable(
                "JumpNotParallel",
                f"jump {tuple(jump)} across breakline {k + 1} is not parallel to its normal",
            )
        peeled.insert(0, Neuron(bl, kink, 1))
        g = tuple_evaluator(EffectiveTuple(peeled, 0))
        residual = lambda p, g=g: f(p) - g(p)
    grad, const = _fit_around(residual, (F(0),) * d0, F(1))
    pair = () if is_zero(grad) else affine_pair(grad, 0)[:2]
    result = EffectiveTuple((*peeled, *pair), const)
    response = tuple_evaluator(result)
    rng = random.Random(seed)
    phases = (
        (2 * d0 + 8, 40, 8, "ResidualNotAffine", "residual disagrees with its affine fit"),
        (n_verify, 60, 10, "MissingBreakline", "function disagrees with the synthesized network"),
    )
    for count, num, den, reason, detail in phases:
        for _ in range(count):
            p = tuple(F(rng.randint(-num, num), rng.randint(1, den)) for _ in range(d0))
            if f(p) != response(p):
                raise NotRepresentable(reason, f"{detail} at {p}")
    return result


def outcome(run):
    try:
        return "ok", run()
    except RelugeoError as exc:
        return type(exc).__name__, str(exc)


def declared_case(seed, declared):
    """A transversal form's evaluator and a declaration that may be wrong.

    The declaration is exact, misses a kink, adds a flat line or puts a kink
    elsewhere; "far" hides a kink beyond the residual check's sample box.
    """
    rng = random.Random(seed)
    d0 = rng.randint(1, 3)
    cf = random_transversal_form(rng, d0, rng.randint(1, 4))
    breaklines = list(cf.breaklines)
    f = cf.evaluator
    if declared == "far":
        far = {**dict(cf.terms), Breakline((1,) + (0,) * (d0 - 1), 45): F(1)}
        terms = sorted(far.items(), key=lambda t: (t[0].direction, t[0].offset))
        f = CanonicalForm(tuple(terms), cf.affine, cf.bias, d0).evaluator
    elif declared == "dropped":
        del breaklines[rng.randrange(len(breaklines))]
    elif declared == "extra":
        breaklines.insert(rng.randrange(len(breaklines) + 1), random_breakline(rng, d0))
    elif declared == "moved":
        breaklines[rng.randrange(len(breaklines))] = random_breakline(rng, d0)
    return f, breaklines, d0


def both(f, breaklines, d0, seed, check, n_verify):
    args = (breaklines, d0, seed, check, n_verify)
    got = outcome(lambda: synthesize_evaluator(f, *args))
    want = outcome(lambda: reference_synthesize_evaluator(f, *args))
    return got, want


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    declared=st.sampled_from(["exact", "dropped", "extra", "moved", "far"]),
    n_verify=st.sampled_from([0, 3, 1000]),
    check=st.booleans(),
    black_box=st.booleans(),
)
def test_integer_check_matches_fraction_check(seed, declared, n_verify, check, black_box):
    f, breaklines, d0 = declared_case(seed, declared)
    if black_box:
        compiled_f = f
        f = lambda x: compiled_f(x)  # no kernel: the check lifts it
    got, want = both(f, breaklines, d0, seed % 97, check, n_verify)
    assert got == want


def test_both_phases_fail_with_the_same_message():
    # a fixed sweep, so each phase's message is compared on both paths
    seen = set()
    for seed in range(60):
        for declared in ("dropped", "far"):
            f, breaklines, d0 = declared_case(seed, declared)
            for g in (f, lambda x, f=f: f(x)):
                got, want = both(g, breaklines, d0, seed, True, 1000)
                assert got == want
                if got[0] == "NotRepresentable":
                    seen.add(got[1].split(":")[0])
    assert {"ResidualNotAffine", "MissingBreakline"} <= seen


# -- homogeneity of the compiled numerators ---------------------------------


small = st.builds(F, st.integers(-9, 9), st.integers(1, 6))


def nets(d0):
    rows = st.lists(st.tuples(st.tuples(*[small] * d0), small, small), min_size=1, max_size=5)
    return st.builds(lambda rs, b2: ShallowNet(*zip(*rs), b2), rows, small)


def kernels(d0):
    """(num, m, value) for a compiled evaluator: x -> value(x) is its response."""

    def of(ev):
        return (*ev.kernel, ev)

    def of_net(net):
        kernel = _response(_net_relus(net), (), net.b2, net.d0, "net").kernel
        return (*kernel, lambda x: evaluate_net(net, x))

    return st.one_of(
        trees(d0).map(lambda e: of(evaluator(e))),
        tuples(d0).map(lambda t: of(tuple_evaluator(t))),
        forms(d0).map(lambda cf: of(cf.evaluator)),
        nets(d0).map(of_net),
    )


def scaled_points(d0):
    X = st.lists(st.integers(-(10**4), 10**4), min_size=d0, max_size=d0)
    return st.lists(st.tuples(X, st.integers(1, 60)), min_size=1, max_size=5)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda d0: st.tuples(kernels(d0), scaled_points(d0))),
    st.integers(1, 12),
)
def test_compiled_numerators_are_positively_homogeneous(case, c):
    (num, m, value), points = case
    for X, D in points:
        N = num(X, D)
        assert num([c * a for a in X], c * D) == c * N
        assert F(N, m * D) == value(tuple(F(a, D) for a in X))
